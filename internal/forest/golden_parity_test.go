package forest_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/forest"
	"repro/internal/rca"
	"repro/internal/synth"
)

// TestBinnedForestGoldenParity is the golden check of the histogram-
// binning refactor at pipeline level: on the seeded synthetic dataset the
// golden fixtures use (scale 0.05 ≈ 238 indoor antennas, so every RSCA
// column stays within MaxBins distinct values), the staged run's binned
// surrogate must be bit-identical — trees, OOB accuracy and the
// OutdoorLabels it yields — to the sort-based reference forest. The
// forest-free Labels half of the check lives in package analysis.
func TestBinnedForestGoldenParity(t *testing.T) {
	cfg := analysis.Config{Seed: 3, Scale: 0.05, OutdoorCount: 200, ForestTrees: 25}
	ds := synth.Generate(synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: cfg.OutdoorCount})
	res, err := analysis.RunOnDataset(ds, cfg)
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	bins := forest.BinFeatures(res.RSCA)
	for j := 0; j < res.RSCA.Cols(); j++ {
		if !bins.Feature(j).Exact {
			t.Fatalf("fixture column %d left the exact-binning regime; shrink the fixture", j)
		}
	}

	exact := forest.TrainExact(res.RSCA, res.Labels, res.K, forest.Config{
		Trees:    res.Config.ForestTrees,
		MaxDepth: res.Config.ForestDepth,
		Seed:     res.Config.Seed + 1,
	})
	if !reflect.DeepEqual(exact.Trees, res.Surrogate.Trees) {
		t.Fatal("binned surrogate trees diverge from the exact-sort reference")
	}
	if !reflect.DeepEqual(exact.OOBAccuracy, res.Surrogate.OOBAccuracy) {
		t.Fatalf("OOB accuracy diverges: %v vs %v", exact.OOBAccuracy, res.Surrogate.OOBAccuracy)
	}

	// OutdoorLabels must survive an exact-reference reclassify.
	ref, err := rca.NewOutdoorReference(ds.Traffic)
	if err != nil {
		t.Fatalf("outdoor reference: %v", err)
	}
	outRSCA, err := ref.RSCAOutdoor(ds.OutdoorTraffic)
	if err != nil {
		t.Fatalf("outdoor RSCA: %v", err)
	}
	if !reflect.DeepEqual(res.OutdoorLabels, exact.PredictAll(outRSCA)) {
		t.Fatal("OutdoorLabels diverge from the exact-sort reference")
	}
}

var (
	scaleOnce sync.Once
	scaleRes  *analysis.Result
	scaleErr  error
)

// scaleFixture returns the cold pipeline at the perfbench model's shape:
// seed 1, scale 0.25 (1,193 indoor antennas × 73 services), K = 9 and the
// paper's 100-tree surrogate. Most RSCA columns there exceed MaxBins
// distinct values, so the forest exercises both binning modes.
func scaleFixture(tb testing.TB) *analysis.Result {
	tb.Helper()
	scaleOnce.Do(func() {
		scaleRes, scaleErr = analysis.Run(analysis.Config{Seed: 1, Scale: 0.25})
	})
	if scaleErr != nil {
		tb.Fatal(scaleErr)
	}
	return scaleRes
}

// surrogateConfig is the forest configuration the pipeline trains res's
// surrogate with.
func surrogateConfig(res *analysis.Result) forest.Config {
	return forest.Config{Trees: res.Config.ForestTrees, MaxDepth: res.Config.ForestDepth, Seed: res.Config.Seed + 1}
}

// TestForestMatchesWindowGrower pins the weighted, class-sparse, pruned
// grower to the duplicate-index grower with the window scan it replaced,
// forest against forest (every node, threshold, leaf distribution and
// both accuracies), at scale 0.25 for the cold surrogate and for the
// surrogate of one warm refresh over drifted traffic.
func TestForestMatchesWindowGrower(t *testing.T) {
	cold := scaleFixture(t)
	if want := forest.TrainWindow(cold.RSCA, cold.Labels, cold.K, surrogateConfig(cold)); !reflect.DeepEqual(want, cold.Surrogate) {
		t.Fatal("cold surrogate diverges from the duplicate-index window grower")
	}

	// Antennas 0–59 take on the demand mix of the antenna 600 rows on:
	// the warm path reassigns them and retrains on shifted RSCA.
	traffic := cold.Dataset.Traffic.Clone()
	dirty := make([]int, 60)
	for i := range dirty {
		dirty[i] = i
		copy(traffic.Row(i), traffic.Row(i+600))
	}
	warm, _, err := analysis.WarmRefreshContext(context.Background(), cold, traffic, dirty, analysis.WarmConfig{DriftThreshold: analysis.DefaultDriftThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(warm.Surrogate.Trees, cold.Surrogate.Trees) {
		t.Fatal("the drifted refresh retrained the same forest; the fixture must move it")
	}
	if want := forest.TrainWindow(warm.RSCA, warm.Labels, warm.K, surrogateConfig(warm)); !reflect.DeepEqual(want, warm.Surrogate) {
		t.Fatal("warm surrogate diverges from the duplicate-index window grower")
	}
}

var benchForest *forest.Forest

// BenchmarkTrainContext trains the scale-0.25 surrogate — 100 trees on
// 1,193 rows × 73 RSCA features, K = 9 — on the process-shared pool.
func BenchmarkTrainContext(b *testing.B) {
	res := scaleFixture(b)
	cfg := surrogateConfig(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := forest.TrainContext(context.Background(), res.RSCA, res.Labels, res.K, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchForest = f
	}
}

// BenchmarkRetrainContext retrains the same surrogate after one ingest
// period's traffic-proportional drift (10,500 records of 3.3 kB), regrowing
// from the undrifted surrogate's split record: the warm refresh's forest
// stage at the perfbench shape.
func BenchmarkRetrainContext(b *testing.B) {
	res := scaleFixture(b)
	cfg := surrogateConfig(res)
	ctx := context.Background()
	_, prev, err := forest.RetrainContext(ctx, nil, res.RSCA, res.Labels, res.K, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := drifted(res, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := forest.RetrainContext(ctx, prev, x, res.Labels, res.K, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchForest = f
	}
}
