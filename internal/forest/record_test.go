package forest

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// TestRetrainRescansAfterLowerEntryBest pins the entry-best rule of a
// replayed non-improvement. Feature 0 separates the two classes and
// feature 1 almost does; whenever the root draws feature 0 first, the
// record notes feature 1 as not improving on it. The retrain then
// scrambles feature 0 alone, so feature 1 is unchanged but enters with a
// far lower running best: replaying its record as "no improvement" would
// split on the scrambled feature, and only rescanning it gives the cold
// forest.
func TestRetrainRescansAfterLowerEntryBest(t *testing.T) {
	const n = 200
	r := rng.New(4)
	x := mat.NewDense(n, 2)
	y := make([]int, n)
	for i := range y {
		y[i] = i * 2 / n
		x.Row(i)[0] = float64(y[i]) + r.Float64()
		x.Row(i)[1] = float64(y[i]) + r.Float64()
		if i%5 == 0 {
			x.Row(i)[1] = float64(1-y[i]) + r.Float64()
		}
	}
	scrambled := x.Clone()
	for i := 0; i < n; i++ {
		scrambled.Row(i)[0] = r.Float64()
	}

	ctx := context.Background()
	firstDrawn := 0
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := Config{Trees: 1, MaxDepth: 1, Features: 2, Seed: seed}
		_, prev, err := RetrainContext(ctx, nil, x, y, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c := prev.trees[0].cands; c[0] == 0|improvedBit && c[1] == 1 {
			firstDrawn++
		}
		got, _, err := RetrainContext(ctx, prev, scrambled, y, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := TrainContext(ctx, scrambled, y, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the regrown forest diverges from a cold training", seed)
		}
		if root := want.Trees[0].Nodes[0]; root.Feature != 1 {
			t.Fatalf("seed %d: the cold root splits feature %d, the fixture needs feature 1", seed, root.Feature)
		}
	}
	if firstDrawn == 0 {
		t.Fatal("no seed drew feature 0 before feature 1 at the root; the fixture must")
	}
}
