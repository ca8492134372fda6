package analysis

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipe"
)

// DefaultDriftThreshold is the moved-antenna fraction past which a warm
// refresh escalates to a full re-linkage; serve's refresh controller and
// cmd/icnserve default to it.
const DefaultDriftThreshold = 0.05

// WarmConfig bounds a warm refresh.
type WarmConfig struct {
	// DriftThreshold is the fraction of reassigned antennas beyond which
	// the warm pass abandons the centroid assignment and re-runs the full
	// Ward linkage. Values <= 0 escalate on any nonzero drift.
	DriftThreshold float64
}

// RefreshStats reports what one warm refresh did.
type RefreshStats struct {
	// Drift is the fraction of antennas whose cluster membership the
	// centroid assignment changed; Reassigned and Added break it down.
	Drift      float64
	Reassigned int
	Added      int
	// Escalated is true when drift exceeded the threshold and the refresh
	// fell back to a full re-linkage.
	Escalated bool
	// ForestScanned and ForestReused are the row-feature units the
	// surrogate retrain scanned and replayed from the previous revision's
	// split record (see forest.Record.Work); the first refresh after a
	// cold result replays nothing.
	ForestScanned, ForestReused int64
}

// WarmRefresh is WarmRefreshContext without cancellation.
func WarmRefresh(prev *Result, traffic *mat.Dense, dirty []int, wcfg WarmConfig) (*Result, RefreshStats, error) {
	return WarmRefreshContext(context.Background(), prev, traffic, dirty, wcfg)
}

// WarmRefreshContext re-runs the servable part of the pipeline on updated
// traffic, warm-starting clustering from prev's partition. It composes the
// same sub-graphs as the cold path (stages.go): the Eq. 2 feature stage,
// an "assign" stage that keeps clean antennas in their previous cluster
// and moves only the rows listed in dirty to their nearest Ward centroid
// (escalating to a full re-linkage plus archetype re-alignment when the
// drift statistic exceeds wcfg.DriftThreshold), the model stages —
// surrogate forest retrain on the shared worker pool, regrown from prev's
// split record so only the (node, feature) scans whose inputs changed run
// again, and environment contingency — and the forecast stage, which
// retrains the busy-hour forecasters on the updated traffic rows so every
// revision serves forecasts matching its own ingest state. The
// model-selection sweep and temporal-cache warmup are cold-only and
// skipped.
//
// The outdoor classification is not run: the result comes back with nil
// OutdoorLabels and OutdoorShare, since no served answer depends on them
// (the revision fingerprint covers the forest, not its outdoor verdicts).
// Callers that audit the revision call Result.ClassifyOutdoor before they
// share the result; the serving refresher does so after it publishes.
//
// Determinism contract: with bit-identical traffic and no dirty rows, the
// result is bit-identical to the cold pipeline that produced prev —
// labels, forest, outdoor verdicts once ClassifyOutdoor has run, and hence
// the serve-side revision fingerprint (see the parity fixtures in
// warm_test.go and serve/refresh_test.go). With any traffic, the
// surrogate is bit-identical to a cold forest.TrainContext on the
// refreshed RSCA and labels; the split record only decides how much of it
// is replayed. traffic must have one row per indoor antenna of prev's
// dataset.
func WarmRefreshContext(ctx context.Context, prev *Result, traffic *mat.Dense, dirty []int, wcfg WarmConfig) (*Result, RefreshStats, error) {
	var st RefreshStats
	if prev == nil || prev.Surrogate == nil || len(prev.Labels) == 0 {
		return nil, st, fmt.Errorf("analysis: warm refresh needs a completed previous result")
	}
	if traffic == nil || traffic.Rows() != len(prev.Dataset.Indoor) {
		rows := 0
		if traffic != nil {
			rows = traffic.Rows()
		}
		return nil, st, fmt.Errorf("analysis: warm traffic has %d rows, dataset has %d indoor antennas",
			rows, len(prev.Dataset.Indoor))
	}
	cfg := prev.Config.withDefaults()
	// The refreshed result sees the same population with updated traffic.
	nds := *prev.Dataset
	nds.Traffic = traffic
	res := &Result{Config: cfg, Dataset: &nds, trace: obs.NewTrace()}

	threshold := wcfg.DriftThreshold
	if threshold < 0 {
		threshold = 0
	}

	g := pipe.NewGraph()
	feats := &FeatureArtifacts{}
	clus := &ClusterArtifacts{}
	model := &ModelArtifacts{regrow: &regrow{prev: prev.forestRecord}}
	AddRSCAStage(g, nds.Traffic, prev.K, feats)

	g.Add("assign", []string{"rsca"}, func(ctx context.Context) error {
		clus.K = prev.K
		cents := cluster.Centroids(feats.RSCA, prev.Labels, prev.K)
		wa := cluster.WarmAssign(feats.RSCA, cents, prev.Labels, dirty)
		st.Drift, st.Reassigned, st.Added = wa.Drift, wa.Reassigned, wa.Added
		if wa.Drift <= threshold {
			clus.Labels = wa.Labels
			return nil
		}
		// The partition moved too far for centroid patching to stay
		// faithful to Ward's objective: redo the linkage from scratch.
		st.Escalated = true
		d2, err := mat.PairwiseSqDistContext(ctx, feats.RSCA)
		if err != nil {
			return err
		}
		clus.Linkage = cluster.WardFromSqDistances(d2)
		return clus.cutAndAlign(&nds)
	})

	AddModelStages(g, &nds, cfg, feats, clus, model, "assign")
	fc := &ForecastArtifacts{}
	AddForecastStage(g, &nds, cfg, clus, fc, "assign")

	if err := g.Run(ctx, res.Trace()); err != nil {
		return nil, st, err
	}
	res.publish(feats, clus, model, fc)
	res.forestRecord = model.regrow.next
	if rec := res.forestRecord; rec != nil {
		st.ForestScanned, st.ForestReused = rec.Work()
	}
	return res, st, nil
}
