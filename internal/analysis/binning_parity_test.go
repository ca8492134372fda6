package analysis

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

// TestBinnedForestGoldenParity is the forest-free half of the histogram-
// binning golden check: on the seeded synthetic dataset the golden
// fixtures use (scale 0.05), the staged run's Labels come from clustering
// and must be untouched by the forest refactor. The trees, OOB accuracy
// and OutdoorLabels half, which needs the sort-based reference forest,
// lives in package forest.
func TestBinnedForestGoldenParity(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.05, OutdoorCount: 200, ForestTrees: 25}
	ds := synth.Generate(synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: cfg.OutdoorCount})
	res, err := RunOnDataset(ds, cfg)
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	seq := computeSequential(t, ds, cfg.withDefaults())
	if !reflect.DeepEqual(res.Labels, seq.Labels) {
		t.Fatal("Labels diverge from the pre-binning implementation")
	}
}
