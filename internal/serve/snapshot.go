package serve

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/forecast"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/rca"
)

// ModelSnapshot is the frozen, servable output of one offline pipeline
// run: the Eq. 5 indoor-reference service shares and the trained surrogate
// forest. It is immutable after construction, so handlers read it without
// locks; swapping in a retrained model is building a new snapshot.
type ModelSnapshot struct {
	// Ref holds the indoor-side denominators of Eq. 5 (per-service shares
	// of total indoor traffic), the reference new antennas are compared
	// against.
	Ref *rca.OutdoorReference
	// Forest is the Section 5.1.2 surrogate classifier.
	Forest *forest.Forest
	// K is the number of demand clusters the forest predicts.
	K int
	// Services is the expected traffic-vector length (the catalog size M).
	Services int
	// Forecasts bundles the per-cluster and per-antenna busy-hour
	// forecasters trained alongside this snapshot's model (nil when the
	// producing pipeline predates the forecast stage); /v1/forecast and
	// /v1/plan read it.
	Forecasts *forecast.Set
	// Revision fingerprints the snapshot (reference shares + model shape +
	// forecast-set digest); classify and forecast responses echo it so
	// clients can detect model swaps.
	Revision uint64
}

// NewModelSnapshot freezes the servable state of a finished pipeline run.
func NewModelSnapshot(res *analysis.Result) (*ModelSnapshot, error) {
	if res == nil || res.Surrogate == nil || res.Dataset == nil || res.Dataset.Traffic == nil {
		return nil, fmt.Errorf("serve: result has no trained surrogate")
	}
	ref, err := rca.NewOutdoorReference(res.Dataset.Traffic)
	if err != nil {
		return nil, fmt.Errorf("serve: indoor reference: %w", err)
	}
	m := &ModelSnapshot{
		Ref:       ref,
		Forest:    res.Surrogate,
		K:         res.K,
		Services:  res.Dataset.Traffic.Cols(),
		Forecasts: res.Forecasts,
	}
	m.Revision = m.fingerprint()
	return m, nil
}

// fingerprint hashes the reference shares and the full forest structure
// (FNV-1a over float bits and node topology), so equal revisions attest
// bit-equal served behavior — the invariant the refresh controller's
// skip-on-unchanged-revision and the chaos swap-storm parity leg rely on —
// and any retrain that changes a single split yields a fresh revision.
func (m *ModelSnapshot) fingerprint() uint64 {
	var h uint64 = 0xcbf29ce484222325
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 0x100000001b3
		}
	}
	for _, s := range m.Ref.ServiceShare {
		mix(math.Float64bits(s))
	}
	mix(uint64(m.K))
	mix(uint64(m.Services))
	mix(uint64(len(m.Forest.Trees)))
	for _, t := range m.Forest.Trees {
		mix(uint64(len(t.Nodes)))
		for i := range t.Nodes {
			n := &t.Nodes[i]
			mix(uint64(int64(n.Feature)))
			mix(math.Float64bits(n.Threshold))
			if n.Feature < 0 {
				// A leaf hashes as childless (0, 0) followed by its
				// distribution; its Left is a Tree.Probs slot, not a child.
				mix(0)
				mix(0)
				for _, p := range t.LeafProbs(i) {
					mix(math.Float64bits(p))
				}
				continue
			}
			mix(uint64(int64(n.Left)))
			mix(uint64(int64(n.Right)))
		}
	}
	// Forecast models are served under the same revision, so a retrain
	// that only moves the forecasters (e.g. traffic folded into an
	// unchanged partition) still mints a fresh revision. Snapshots without
	// a forecast set hash exactly as before.
	if m.Forecasts != nil {
		mix(m.Forecasts.Digest())
	}
	return h
}

// Classify transforms raw per-service traffic vectors with the Eq. 5
// indoor-reference RSCA and predicts one cluster per row. Rows fan out over
// the pool carried by ctx (pipe.FromContext). Every vector must have
// exactly Services entries.
func (m *ModelSnapshot) Classify(ctx context.Context, rows [][]float64) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	for i, r := range rows {
		if len(r) != m.Services {
			return nil, fmt.Errorf("serve: antenna %d has %d services, model expects %d", i, len(r), m.Services)
		}
	}
	t, err := mat.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("serve: traffic vectors: %w", err)
	}
	features, err := m.Ref.RSCAOutdoor(t)
	if err != nil {
		return nil, fmt.Errorf("serve: Eq. 5 transform: %w", err)
	}
	// Batch prediction over the pool carried by ctx — the same
	// forest.PredictAllContext path the offline outdoor stage uses.
	return m.Forest.PredictAllContext(ctx, features)
}
