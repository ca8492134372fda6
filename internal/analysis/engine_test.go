package analysis

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/forest"
	"repro/internal/pipe"
	"repro/internal/rca"
	"repro/internal/synth"
)

// sequentialReference recomputes the pipeline outputs exactly as the
// pre-engine sequential code did: each section in paper order, no stage
// graph, no distance sharing. The staged engine must be byte-identical to
// this on every field the figures consume.
type sequentialReference struct {
	Selection     []cluster.SelectionPoint
	Labels        []int
	Contingency   [][]int
	OutdoorLabels []int
}

func computeSequential(t *testing.T, ds *synth.Dataset, cfg Config) sequentialReference {
	t.Helper()
	cfg = cfg.withDefaults()
	rsca := rca.RSCA(ds.Traffic)
	linkage := cluster.Ward(rsca)
	d := cluster.PairwiseDistances(rsca)
	var ref sequentialReference
	var err error
	ref.Selection, err = cluster.SweepK(linkage, d, 2, cfg.SweepKMax)
	if err != nil {
		t.Fatal(err)
	}
	raw := linkage.CutK(cfg.K)
	mapping := alignLabels(raw, ds, cfg.K)
	ref.Labels = make([]int, len(raw))
	for i, l := range raw {
		ref.Labels[i] = mapping[l]
	}
	f := forest.Train(rsca, ref.Labels, cfg.K, forest.Config{
		Trees:    cfg.ForestTrees,
		MaxDepth: cfg.ForestDepth,
		Seed:     cfg.Seed + 1,
	})
	ref.Contingency = EnvContingency(ref.Labels, ds, cfg.K).Counts
	seqRes := &Result{Config: cfg, Dataset: ds, K: cfg.K, Surrogate: f}
	if err := seqRes.ClassifyOutdoor(context.Background()); err != nil {
		t.Fatalf("sequential outdoor classification: %v", err)
	}
	ref.OutdoorLabels = seqRes.OutdoorLabels
	return ref
}

// TestStagedMatchesSequential is the golden parity check of the engine
// refactor: for two seed/scale combinations, the staged concurrent run
// must produce byte-identical Labels, Selection, Contingency and
// OutdoorLabels to the sequential paper-order computation.
func TestStagedMatchesSequential(t *testing.T) {
	combos := []Config{
		{Seed: 3, Scale: 0.05, OutdoorCount: 200, ForestTrees: 25},
		{Seed: 11, Scale: 0.08, OutdoorCount: 300, ForestTrees: 30},
	}
	for _, cfg := range combos {
		ds := synth.Generate(synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: cfg.OutdoorCount})
		res, err := RunOnDataset(ds, cfg)
		if err != nil {
			t.Fatalf("seed %d: staged run: %v", cfg.Seed, err)
		}
		ref := computeSequential(t, ds, cfg)
		if !reflect.DeepEqual(res.Labels, ref.Labels) {
			t.Errorf("seed %d: staged Labels diverge from sequential reference", cfg.Seed)
		}
		if !reflect.DeepEqual(res.Selection, ref.Selection) {
			t.Errorf("seed %d: staged Selection diverges from sequential reference", cfg.Seed)
		}
		if !reflect.DeepEqual(res.Contingency.Counts, ref.Contingency) {
			t.Errorf("seed %d: staged Contingency diverges from sequential reference", cfg.Seed)
		}
		if !reflect.DeepEqual(res.OutdoorLabels, ref.OutdoorLabels) {
			t.Errorf("seed %d: staged OutdoorLabels diverge from sequential reference", cfg.Seed)
		}
	}
}

// TestTraceRecordsEveryStage checks the observability contract: a
// successful run records one trace row per graph stage.
func TestTraceRecordsEveryStage(t *testing.T) {
	r := testResult(t)
	got := map[string]bool{}
	for _, st := range r.Trace().Stages() {
		got[st.Name] = true
		if st.Err != "" {
			t.Errorf("stage %s recorded error %q on a successful run", st.Name, st.Err)
		}
	}
	for _, name := range []string{"rsca", "distances", "linkage", "selection", "labels", "forest", "contingency", "outdoor", "temporal"} {
		if !got[name] {
			t.Errorf("stage %s missing from trace (have %v)", name, got)
		}
	}
	if r.Trace().Total() <= 0 {
		t.Error("trace total is zero")
	}
}

// TestRunContextCancellation cancels a run shortly after it starts: the
// run must return ctx's error promptly and leak no goroutines.
func TestRunContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Config{Seed: 9, Scale: 0.15, OutdoorCount: 400, ForestTrees: 80})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
	// Pool helpers and stage goroutines must drain after cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancel: %d before, %d after", before, runtime.NumGoroutine())
}

// TestInvalidFeaturesReturnStageError feeds the pipeline non-finite
// traffic: the rsca stage must fail with a wrapped StageError instead of
// panicking, and no later stage may run.
func TestInvalidFeaturesReturnStageError(t *testing.T) {
	ds := synth.Generate(synth.Config{Seed: 4, Scale: 0.04, OutdoorCount: 50})
	ds.Traffic.Row(0)[0] = math.NaN()
	res, err := RunOnDataset(ds, Config{Seed: 4, Scale: 0.04, ForestTrees: 10})
	if err == nil {
		t.Fatal("pipeline accepted NaN traffic")
	}
	if res != nil {
		t.Fatal("failed run returned a non-nil result")
	}
	var se *pipe.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StageError", err)
	}
	if se.Stage != "rsca" {
		t.Fatalf("failure attributed to stage %q, want rsca", se.Stage)
	}
	if !strings.Contains(err.Error(), "invalid RSCA") {
		t.Fatalf("error %q does not name the RSCA validation", err)
	}
}
