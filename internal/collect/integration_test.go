package collect

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/synth"
)

// TestMeasurementToAnalysisPipeline drives the entire stack the way the
// operator's platform does: a synthetic deployment's traffic is rendered
// into per-session probe records, exported over TCP by concurrent probes,
// aggregated by the collector, materialized as the T matrix, and fed to
// the analysis pipeline — which must still discover the cluster structure.
func TestMeasurementToAnalysisPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration in -short mode")
	}
	// Small deployment; session generation is the expensive part.
	ds := synth.Generate(synth.Config{Seed: 77, Scale: 0.04, OutdoorCount: 100})
	n := len(ds.Indoor)

	c, err := ListenContext(context.Background(), "127.0.0.1:0", WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Serve(ctx) }()

	// Each "probe" covers a slice of antennas and exports its sessions
	// over its own TCP connection, concurrently. To bound test cost, the
	// two-month totals are shipped as one synthetic hour per antenna.
	const probes = 4
	var wg sync.WaitGroup
	var sent struct {
		sync.Mutex
		n int
	}
	for p := 0; p < probes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + p))
			var records []probe.Record
			for id := p; id < n; id += probes {
				records = append(records,
					probe.GenerateSessions(0, uint32(id), ds.Traffic.Row(id), r)...)
			}
			sent.Lock()
			sent.n += len(records)
			sent.Unlock()
			if err := Export(context.Background(), c.Addr().String(), records); err != nil {
				t.Errorf("probe %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	waitForRecords(t, c, sent.n)
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("Serve: %v", err)
	}

	// The matrix collected over the wire must match the generated one
	// (session byte-splitting rounds at the single-byte level).
	collected := c.TrafficMatrix(n, services.M)
	for i := 0; i < n; i++ {
		for j := 0; j < services.M; j++ {
			want := ds.Traffic.At(i, j)
			got := collected.At(i, j)
			if math.Abs(got-want) > 1e-4*math.Max(want, 1) {
				t.Fatalf("cell (%d,%d): collected %v, generated %v", i, j, got, want)
			}
		}
	}

	// Swap the collected matrix into the dataset and run the analysis:
	// the clusters must still be discovered from wire-collected data.
	ds.Traffic = collected
	res, err := analysis.RunOnDataset(ds, analysis.Config{
		Seed:        77,
		Scale:       0.04,
		ForestTrees: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Purity(); p < 0.8 {
		t.Fatalf("pipeline purity on wire-collected data: %.3f", p)
	}
	if res.SurrogateAccuracy < 0.9 {
		t.Fatalf("surrogate accuracy on wire-collected data: %.3f", res.SurrogateAccuracy)
	}
}
