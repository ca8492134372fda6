package forest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestBinFeaturesExactSmallColumn(t *testing.T) {
	x := mat.MustFromRows([][]float64{{3}, {1}, {2}, {1}, {3}})
	b := BinFeatures(x)
	fb := b.Feature(0)
	if !fb.Exact {
		t.Fatal("3 distinct values must bin exactly")
	}
	if b.NumBins(0) != 3 {
		t.Fatalf("bins = %d, want 3 (one per distinct value)", b.NumBins(0))
	}
	for k, want := range []float64{1, 2, 3} {
		if fb.Lo[k] != want || fb.Hi[k] != want {
			t.Fatalf("bin %d range [%v,%v], want the single value %v", k, fb.Lo[k], fb.Hi[k], want)
		}
	}
	wantCodes := []uint8{2, 0, 1, 0, 2}
	if !reflect.DeepEqual(b.Codes().Col(0), wantCodes) {
		t.Fatalf("codes %v, want %v", b.Codes().Col(0), wantCodes)
	}
}

func TestBinFeaturesConstantColumn(t *testing.T) {
	x := mat.MustFromRows([][]float64{{7, 1}, {7, 2}, {7, 3}})
	b := BinFeatures(x)
	if b.NumBins(0) != 1 || !b.Feature(0).Exact {
		t.Fatalf("constant column binned into %d bins", b.NumBins(0))
	}
	for _, c := range b.Codes().Col(0) {
		if c != 0 {
			t.Fatal("constant column must code every row 0")
		}
	}
	// A tree over a constant-only matrix cannot split.
	xc := mat.MustFromRows([][]float64{{5}, {5}, {5}, {5}})
	tree := BuildTree(xc, []int{0, 1, 0, 1}, nil, 2, TreeConfig{}, rng.New(1))
	if tree.LeafCount() != 1 {
		t.Fatal("constant features should yield a single mixed leaf")
	}
}

func TestBinFeaturesAllIdenticalRows(t *testing.T) {
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = []float64{1.5, -2, 0}
	}
	x := mat.MustFromRows(rows)
	b := BinFeatures(x)
	for j := 0; j < x.Cols(); j++ {
		if b.NumBins(j) != 1 {
			t.Fatalf("column %d of identical rows binned into %d bins", j, b.NumBins(j))
		}
	}
}

func TestBinFeaturesQuantileMode(t *testing.T) {
	// 1000 distinct values force quantile binning.
	n := 1000
	r := rng.New(9)
	x := mat.NewDense(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Normal())
	}
	b := BinFeatures(x)
	fb := b.Feature(0)
	nb := b.NumBins(0)
	if fb.Exact {
		t.Fatal("1000 distinct values cannot be exact")
	}
	if nb > MaxBins || nb < MaxBins/2 {
		t.Fatalf("quantile binning produced %d bins", nb)
	}
	// Bins must be ordered, non-overlapping and internally consistent.
	for k := 0; k < nb; k++ {
		if fb.Lo[k] > fb.Hi[k] {
			t.Fatalf("bin %d has Lo %v > Hi %v", k, fb.Lo[k], fb.Hi[k])
		}
		if k > 0 && fb.Hi[k-1] >= fb.Lo[k] {
			t.Fatalf("bins %d and %d overlap: Hi %v >= Lo %v", k-1, k, fb.Hi[k-1], fb.Lo[k])
		}
	}
	// Every row's code must place its value inside the bin's range, and
	// every bin must be populated.
	seen := make([]int, nb)
	for i := 0; i < n; i++ {
		c := int(b.Codes().At(i, 0))
		v := x.At(i, 0)
		if v < fb.Lo[c] || v > fb.Hi[c] {
			t.Fatalf("row %d value %v coded into bin %d [%v,%v]", i, v, c, fb.Lo[c], fb.Hi[c])
		}
		seen[c]++
	}
	for k, s := range seen {
		if s == 0 {
			t.Fatalf("bin %d is empty", k)
		}
	}
}

// A seeded binning — each column's sort started from an earlier
// binning's codes — must equal the cold binning of the same matrix, for a
// seed from the same matrix, from a drifted one, from an unrelated one
// (the sort gives up and falls back) and from one of another shape
// (ignored).
func TestSeededBinningMatchesCold(t *testing.T) {
	n := 1000
	r := rng.New(5)
	x := mat.NewDense(n, 4)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Normal())
		x.Set(i, 1, float64(r.Intn(12)))
		x.Set(i, 2, math.Round(r.Normal()*40)/40)
		x.Set(i, 3, 2)
	}
	drifted := x.Clone()
	for i := 0; i < n; i += 20 {
		drifted.Set(i, 0, x.At(i, 0)+0.01*r.Normal())
		drifted.Set(i, 2, x.At(i, 2)+0.05)
	}
	copy(drifted.Row(7), x.Row(n-7)) // one row crosses many bins
	reversed := x.Clone()
	for i := 0; i < n; i++ {
		reversed.Set(i, 0, -x.At(i, 0))
		reversed.Set(i, 2, -x.At(i, 2))
	}
	seed := BinFeatures(x).Codes()
	for _, c := range []struct {
		name string
		x    *mat.Dense
		seed *mat.BinMatrix
	}{
		{"same matrix", x, seed},
		{"drifted matrix", drifted, seed},
		{"unrelated seed", reversed, seed},
		{"another shape", x, BinFeatures(mat.NewDense(n, 3)).Codes()},
	} {
		got, err := binFeatures(context.Background(), c.x, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := BinFeatures(c.x); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: seeded binning differs from the cold one", c.name)
		}
	}

	// The seeded sort finishes within its budget from the matrix's own or
	// a drifted matrix's codes, and gives up on a reversed order instead
	// of going quadratic.
	ps := make([]valRow, n)
	if !seededOrder(drifted, 0, seed.Col(0), ps) {
		t.Fatal("seeded sort gave up on a drifted column")
	}
	if seededOrder(reversed, 0, seed.Col(0), ps) {
		t.Fatal("seeded sort finished a reversed column within its budget")
	}
}

// TestBinnedTreeMatchesExactSort is the core parity property of the
// histogram refactor: on any dataset whose columns have ≤ MaxBins distinct
// values, the binned and the sort-based searches must grow bit-identical
// trees — same features, same float64 thresholds, same leaves, same RNG
// consumption.
func TestBinnedTreeMatchesExactSort(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		x, y := labeledBlobs(3, 40, 6, 0.9, seed) // 120 rows < 256
		for _, cfg := range []TreeConfig{
			{},
			{MaxDepth: 4},
			{MinLeaf: 5},
			{Features: 2},
			{MaxDepth: 6, MinLeaf: 3, Features: 3},
		} {
			exact := buildTreeExact(x, y, nil, 3, cfg, rng.New(seed*31))
			binned := BuildTree(x, y, nil, 3, cfg, rng.New(seed*31))
			if !reflect.DeepEqual(exact.Nodes, binned.Nodes) {
				t.Fatalf("seed %d cfg %+v: binned tree diverges from exact-sort tree", seed, cfg)
			}
		}
	}
}

// TestBinnedForestMatchesExactSort extends the parity property across
// bootstrap sampling: whole forests (trees, OOB accuracy) must agree when
// columns stay in the exact regime.
func TestBinnedForestMatchesExactSort(t *testing.T) {
	x, y := labeledBlobs(4, 30, 8, 0.8, 3) // 120 rows < 256
	exact := trainExact(x, y, 4, Config{Trees: 20, MaxDepth: 10, Seed: 7})
	binned := Train(x, y, 4, Config{Trees: 20, MaxDepth: 10, Seed: 7})
	if !reflect.DeepEqual(exact.Trees, binned.Trees) {
		t.Fatal("binned forest diverges from exact-sort forest")
	}
	if !reflect.DeepEqual(exact.OOBAccuracy, binned.OOBAccuracy) {
		t.Fatalf("OOB accuracy diverges: %v vs %v", exact.OOBAccuracy, binned.OOBAccuracy)
	}
}

// TestTreeMinLeafTieBreakAtBinBoundary pins the MinLeaf behaviour at a bin
// boundary: the split search proposes the Gini-best boundary without
// regard to MinLeaf, and the grower rejects it post-partition — exactly
// like the exact path — leaving a mixed leaf.
func TestTreeMinLeafTieBreakAtBinBoundary(t *testing.T) {
	x := mat.MustFromRows([][]float64{{1}, {1}, {1}, {2}})
	y := []int{0, 0, 1, 1}
	cfg := TreeConfig{MinLeaf: 2}
	binned := BuildTree(x, y, nil, 2, cfg, rng.New(1))
	if binned.LeafCount() != 1 {
		t.Fatalf("best boundary leaves 1 sample right of the cut; MinLeaf=2 must reject it, got %d leaves", binned.LeafCount())
	}
	exact := buildTreeExact(x, y, nil, 2, cfg, rng.New(1))
	if !reflect.DeepEqual(exact.Nodes, binned.Nodes) {
		t.Fatal("MinLeaf rejection diverges between binned and exact paths")
	}

	// Balanced values at the same boundary satisfy MinLeaf: both paths
	// must now split at the midpoint 1.5.
	x2 := mat.MustFromRows([][]float64{{1}, {1}, {2}, {2}})
	y2 := []int{0, 0, 1, 1}
	b2 := BuildTree(x2, y2, nil, 2, cfg, rng.New(1))
	e2 := buildTreeExact(x2, y2, nil, 2, cfg, rng.New(1))
	if b2.LeafCount() != 2 || b2.Nodes[0].Threshold != 1.5 {
		t.Fatalf("balanced boundary should split at 1.5, got %+v", b2.Nodes[0])
	}
	if !reflect.DeepEqual(e2.Nodes, b2.Nodes) {
		t.Fatal("accepted boundary split diverges between binned and exact paths")
	}
}

// TestQuantileForestStillLearns covers the >256-distinct-value regime the
// parity guarantee excludes: quantile-binned forests must still fit a
// separable problem.
func TestQuantileForestStillLearns(t *testing.T) {
	x, y := labeledBlobs(3, 120, 6, 0.6, 21) // 360 rows > 256 distinct
	b := BinFeatures(x)
	exactCols := 0
	for j := 0; j < x.Cols(); j++ {
		if b.Feature(j).Exact {
			exactCols++
		}
	}
	if exactCols != 0 {
		t.Fatalf("%d of %d columns unexpectedly exact at 360 rows", exactCols, x.Cols())
	}
	f := Train(x, y, 3, Config{Trees: 30, Seed: 5})
	if acc := f.Accuracy(x, y); acc < 0.95 {
		t.Fatalf("quantile-binned forest training accuracy %v", acc)
	}
	if math.IsNaN(f.OOBAccuracy) || f.OOBAccuracy < 0.85 {
		t.Fatalf("quantile-binned forest OOB accuracy %v", f.OOBAccuracy)
	}
}

// TestBuildTreeDoesNotMutateCallerIdx guards the scratch-arena refactor:
// the binned path partitions indices in place, but only inside its own
// arena — the caller's slice must come back untouched.
func TestBuildTreeDoesNotMutateCallerIdx(t *testing.T) {
	x, y := labeledBlobs(2, 30, 4, 0.7, 13)
	idx := make([]int, x.Rows())
	for i := range idx {
		idx[i] = i
	}
	want := make([]int, len(idx))
	copy(want, idx)
	BuildTree(x, y, idx, 2, TreeConfig{}, rng.New(2))
	if !reflect.DeepEqual(idx, want) {
		t.Fatal("BuildTree mutated the caller's index slice")
	}
}
