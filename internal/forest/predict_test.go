package forest_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rca"
	"repro/internal/synth"
)

var (
	outdoorOnce    sync.Once
	outdoorForests []*forest.Forest
	outdoorRSCA    *mat.Dense
	outdoorErr     error
)

// outdoorFixture returns the Eq. 5 features of 5,500 outdoor antennas
// (the perfbench model's outdoor population) on a scale-0.05 indoor set,
// so training stays cheap, and two forests over them: the pipeline's
// surrogate and a depth-4 forest on the same labels. The surrogate's
// leaves are almost all pure, so its sums are exact whatever the order;
// the depth-4 forest's leaves are fractional, so a sum out of tree order
// changes bits.
func outdoorFixture(t *testing.T) ([]*forest.Forest, *mat.Dense) {
	t.Helper()
	outdoorOnce.Do(func() {
		cfg := analysis.Config{Seed: 5, Scale: 0.05, OutdoorCount: 5500, ForestTrees: 30}
		ds := synth.Generate(synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: cfg.OutdoorCount})
		var res *analysis.Result
		if res, outdoorErr = analysis.RunOnDataset(ds, cfg); outdoorErr != nil {
			return
		}
		var ref *rca.OutdoorReference
		if ref, outdoorErr = rca.NewOutdoorReference(ds.Traffic); outdoorErr != nil {
			return
		}
		shallow := forest.Train(res.RSCA, res.Labels, res.K, forest.Config{Trees: 30, MaxDepth: 4, Seed: 6})
		outdoorForests = []*forest.Forest{res.Surrogate, shallow}
		outdoorRSCA, outdoorErr = ref.RSCAOutdoor(ds.OutdoorTraffic)
	})
	if outdoorErr != nil {
		t.Fatal(outdoorErr)
	}
	return outdoorForests, outdoorRSCA
}

// firstRows copies the first n rows of x (an empty matrix for n == 0).
func firstRows(t *testing.T, x *mat.Dense, n int) *mat.Dense {
	t.Helper()
	if n == 0 {
		return new(mat.Dense)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// perRowProbs is the reference the block kernel must match bit for bit:
// one row's leaf distributions summed in tree order 0…T−1, then scaled by
// 1/T.
func perRowProbs(f *forest.Forest, x []float64) []float64 {
	probs := make([]float64, f.Classes)
	for _, t := range f.Trees {
		for c, p := range t.PredictProbs(x) {
			probs[c] += p
		}
	}
	inv := 1 / float64(len(f.Trees))
	for c := range probs {
		probs[c] *= inv
	}
	return probs
}

func perRowVerdict(probs []float64) int {
	best, bestP := 0, math.Inf(-1)
	for c, p := range probs {
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best
}

// TestBlockKernelMatchesPerRowReference checks the tree-major block kernel
// against a per-row sum of Tree.PredictProbs: every row's probability
// bits and every verdict, across batch sizes on both sides of the block
// bound and on pools of one and two workers.
func TestBlockKernelMatchesPerRowReference(t *testing.T) {
	forests, outdoor := outdoorFixture(t)
	if outdoor.Rows() != 5500 {
		t.Fatalf("fixture has %d outdoor rows, want 5500", outdoor.Rows())
	}
	for fi, f := range forests {
		k := f.Classes
		for _, workers := range []int{1, 2} {
			ctx := pipe.WithPool(context.Background(), pipe.NewPool(workers))
			for _, n := range []int{0, 1, 15, 16, 127, 128, 129, 512, outdoor.Rows()} {
				x := firstRows(t, outdoor, n)
				got, err := f.PredictAllContext(ctx, x)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("forest %d, workers %d, n %d: %d verdicts", fi, workers, n, len(got))
				}
				size := forest.BlockRows(n, workers)
				for lo := 0; lo < n; lo += size {
					hi := min(lo+size, n)
					probs := f.BlockProbs(x, lo, hi)
					for r := lo; r < hi; r++ {
						want := perRowProbs(f, x.Row(r))
						for c, p := range probs[(r-lo)*k : (r-lo+1)*k] {
							if math.Float64bits(p) != math.Float64bits(want[c]) {
								t.Fatalf("forest %d, workers %d, n %d, row %d class %d: block %v, per-row %v", fi, workers, n, r, c, p, want[c])
							}
						}
						if got[r] != perRowVerdict(want) {
							t.Fatalf("forest %d, workers %d, n %d, row %d: verdict %d, per-row %d", fi, workers, n, r, got[r], perRowVerdict(want))
						}
					}
				}
			}
		}

		// The single-row and accuracy paths run the same kernel.
		labels := f.PredictAll(outdoor)
		for r := 0; r < outdoor.Rows(); r += 97 {
			if !reflect.DeepEqual(f.PredictProbs(outdoor.Row(r)), perRowProbs(f, outdoor.Row(r))) {
				t.Fatalf("forest %d, row %d: Forest.PredictProbs diverges from the per-row reference", fi, r)
			}
		}
		if acc := f.Accuracy(outdoor, labels); acc != 1 {
			t.Fatalf("forest %d: accuracy against its own verdicts = %v, want 1", fi, acc)
		}
	}
}

// TestPredictAllocations: a tree walk allocates nothing, and a batch
// allocates per block, not per row.
func TestPredictAllocations(t *testing.T) {
	forests, outdoor := outdoorFixture(t)
	f := forests[0]
	row := outdoor.Row(0)
	if a := testing.AllocsPerRun(100, func() { _ = f.Trees[0].PredictProbs(row) }); a != 0 {
		t.Fatalf("Tree.PredictProbs allocates %v times per call, want 0", a)
	}

	// One worker: no helper goroutines, so every allocation is the
	// batch's own.
	ctx := pipe.WithPool(context.Background(), pipe.NewPool(1))
	allocs := func(n int) float64 {
		x := firstRows(t, outdoor, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := f.PredictAllContext(ctx, x); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1)
	for _, n := range []int{128, 512, outdoor.Rows()} {
		blocks := (n + forest.BlockRows(n, 1) - 1) / forest.BlockRows(n, 1)
		if got := allocs(n); got > base+float64(blocks-1) {
			t.Fatalf("%d rows in %d blocks: %v allocations, want at most %v", n, blocks, got, base+float64(blocks-1))
		}
	}
}

// TestNodeLayout pins the compact node's size and that each tree keeps
// every leaf distribution in its one Probs array, in leaf-ordinal slots.
func TestNodeLayout(t *testing.T) {
	if got := reflect.TypeOf(forest.Node{}).Size(); got != 24 {
		t.Fatalf("forest.Node is %d bytes, want 24", got)
	}
	forests, _ := outdoorFixture(t)
	for ti, tree := range forests[0].Trees {
		leaves := tree.LeafCount()
		if len(tree.Probs) != leaves*tree.Classes {
			t.Fatalf("tree %d: %d probabilities for %d leaves × %d classes", ti, len(tree.Probs), leaves, tree.Classes)
		}
		slot := int32(0)
		for i, n := range tree.Nodes {
			if n.Feature >= 0 {
				continue
			}
			if n.Left != slot || n.Right != 0 {
				t.Fatalf("tree %d leaf %d: slot (%d, %d), want (%d, 0)", ti, i, n.Left, n.Right, slot)
			}
			slot++
		}
	}
}
