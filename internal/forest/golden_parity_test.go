package forest_test

import (
	"reflect"
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
