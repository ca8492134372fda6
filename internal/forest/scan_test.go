package forest

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// bestSplitWindow is the boundary scan bestSplit replaced, kept as its
// reference: the fill tracks per-bin sample totals and a min/max bin
// window, and the scan walks every bin of the window, skipping empty ones,
// with each occupied bin's update looping over all classes. It shares the
// grower's scratch and leaves hist all-zero, as bestSplit does.
func (g *binGrow) bestSplitWindow(idx []int, parentCounts []int) (feature int, threshold float64, ok bool) {
	nFeatures := g.x.Cols()
	candidates := nFeatures
	if g.cfg.Features > 0 && g.cfg.Features < nFeatures {
		candidates = g.cfg.Features
	}
	perm := g.s.perm[:nFeatures]
	g.r.PermInto(perm)
	perm = perm[:candidates]

	total := len(idx)
	parentGini := gini(parentCounts, total)
	bestGain := 1e-12
	ok = false

	parentSq := 0
	for _, c := range parentCounts {
		parentSq += c * c
	}

	leftCounts := g.s.left[:g.classes]
	rightCounts := g.s.right[:g.classes]
	hist := g.s.hist
	var binCount [MaxBins]int
	classes := g.classes
	y := g.y

	for _, f := range perm {
		col := g.bins.codes.Col(f)
		minBin, maxBin := MaxBins, -1
		for _, i := range idx {
			b := int(col[i])
			binCount[b]++
			hist[b*classes+y[i]]++
			if b < minBin {
				minBin = b
			}
			if b > maxBin {
				maxBin = b
			}
		}

		copy(rightCounts, parentCounts)
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		nLeft := 0
		prev := -1
		if g.bins.feats[f].Exact {
			for b := minBin; b <= maxBin; b++ {
				if binCount[b] == 0 {
					continue
				}
				if prev >= 0 {
					gl := gini(leftCounts, nLeft)
					gr := gini(rightCounts, total-nLeft)
					weighted := (float64(nLeft)*gl + float64(total-nLeft)*gr) / float64(total)
					if gain := parentGini - weighted; gain > bestGain {
						bestGain = gain
						feature = f
						threshold = g.bins.splitThreshold(f, prev, b)
						ok = true
					}
				}
				row := hist[b*classes : b*classes+classes]
				for c, h := range row {
					leftCounts[c] += h
					rightCounts[c] -= h
					row[c] = 0
				}
				nLeft += binCount[b]
				binCount[b] = 0
				prev = b
			}
			continue
		}
		ssL, ssR := 0, parentSq
		for b := minBin; b <= maxBin; b++ {
			if binCount[b] == 0 {
				continue
			}
			if prev >= 0 {
				nRight := total - nLeft
				weighted := 1 - (float64(ssL)/float64(nLeft)+float64(ssR)/float64(nRight))/float64(total)
				if gain := parentGini - weighted; gain > bestGain {
					bestGain = gain
					feature = f
					threshold = g.bins.splitThreshold(f, prev, b)
					ok = true
				}
			}
			row := hist[b*classes : b*classes+classes]
			for c, h := range row {
				if h != 0 {
					ssL += h * (h + 2*leftCounts[c])
					ssR += h * (h - 2*rightCounts[c])
					leftCounts[c] += h
					rightCounts[c] -= h
					row[c] = 0
				}
			}
			nLeft += binCount[b]
			binCount[b] = 0
			prev = b
		}
	}
	return feature, threshold, ok
}

// scanRows is the row count of the scan fixture: enough for a 256-value
// exact column and a quantile column that fills all MaxBins bins.
const scanRows = 768

// scanFixture builds a feature matrix whose columns cover both binning
// modes and the bitmap's word edges:
//
//	0: i mod 256 — exact, bin code = value, so every code 0…255 occurs
//	1: distinct pseudo-random values — quantile, all MaxBins bins
//	2: i mod 3 — exact, three bins
//	3: constant — exact, one bin
//	4: i/2 — quantile, monotone in the row
//	5: i mod 200 — exact, 200 bins
func scanFixture(t *testing.T) (*mat.Dense, *Binning) {
	t.Helper()
	const cols = 6
	r := rng.New(99)
	x := mat.NewDense(scanRows, cols)
	for i := 0; i < scanRows; i++ {
		row := x.Row(i)
		row[0] = float64(i % 256)
		row[1] = r.Float64()
		row[2] = float64(i % 3)
		row[3] = 7
		row[4] = float64(i / 2)
		row[5] = float64(i % 200)
	}
	bins := BinFeatures(x)
	for j, want := range []bool{true, false, true, true, false, true} {
		if got := bins.Feature(j).Exact; got != want {
			t.Fatalf("fixture column %d: Exact = %v, want %v", j, got, want)
		}
	}
	if got := bins.NumBins(1); got != MaxBins {
		t.Fatalf("quantile fixture column has %d bins, want %d", got, MaxBins)
	}
	return x, bins
}

// scanNode draws one node's sample indices. Kinds rotate through the
// shapes the bitmap must get right: the six word-edge codes of the exact
// column, a node whose samples share one bin of column 0 but not of the
// others, a single repeated row (every column in one bin), and bootstrap
// draws of assorted sizes.
func scanNode(r *rng.Source, kind int) []int {
	switch kind {
	case 0:
		edges := []int{0, 63, 64, 127, 128, 255}
		idx := make([]int, 2+r.Intn(40))
		for k := range idx {
			// A row with i mod 256 == e; rows e, e+256 and e+512 all exist.
			idx[k] = edges[r.Intn(len(edges))] + 256*r.Intn(scanRows/256)
		}
		return idx
	case 1:
		// Rows v, v+256 and v+512 share column 0's bin only.
		v := r.Intn(256)
		idx := make([]int, 2+r.Intn(10))
		for k := range idx {
			idx[k] = v + 256*r.Intn(scanRows/256)
		}
		return idx
	case 2:
		idx := make([]int, 1+r.Intn(8))
		row := r.Intn(scanRows)
		for k := range idx {
			idx[k] = row
		}
		return idx
	default:
		idx := make([]int, 1+r.Intn(scanRows))
		for k := range idx {
			idx[k] = r.Intn(scanRows)
		}
		return idx
	}
}

// scanLabels labels every row with one of `present` classes out of
// classes, so a node sees at most that many.
func scanLabels(r *rng.Source, classes, present int) []int {
	pick := r.Perm(classes)[:present]
	y := make([]int, scanRows)
	for i := range y {
		y[i] = pick[r.Intn(present)]
	}
	return y
}

// TestBestSplitMatchesWindowOracle compares the occupancy-bitmap scan with
// the min/max-window scan it replaced on random nodes: same feature, same
// threshold bits, same ok, and the same RNG state afterwards. Nodes cover
// the bitmap's word-edge bins, single-bin nodes, one-, two- and nine-class
// labelings, exact and quantile columns, and every feature-subset size.
func TestBestSplitMatchesWindowOracle(t *testing.T) {
	x, bins := scanFixture(t)
	const classes = 9
	r := rng.New(5)
	for trial := 0; trial < 2000; trial++ {
		y := scanLabels(r, classes, []int{1, 2, 3, classes}[trial%4])
		idx := scanNode(r, trial%5)
		counts := make([]int, classes)
		for _, i := range idx {
			counts[y[i]]++
		}
		cfg := TreeConfig{Features: trial % (x.Cols() + 1)}
		seed := r.Uint64()
		s := getScratch(x.Cols(), classes, len(idx))
		got := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: rng.New(seed), s: s}
		want := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: rng.New(seed), s: s}

		gf, gt, gok := got.bestSplit(idx, counts)
		for k, h := range s.hist {
			if h != 0 {
				t.Fatalf("trial %d: hist[%d] = %d after the scan, want the all-zero invariant", trial, k, h)
			}
		}
		wf, wt, wok := want.bestSplitWindow(idx, counts)
		putScratch(s)
		if gf != wf || math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
			t.Fatalf("trial %d (kind %d, %d samples, counts %v, cfg %+v): bitmap scan (%d, %v, %v), window oracle (%d, %v, %v)",
				trial, trial%5, len(idx), counts, cfg, gf, gt, gok, wf, wt, wok)
		}
		if *got.r != *want.r {
			t.Fatalf("trial %d: RNG state diverges after the split search", trial)
		}
	}
}

// TestBinnedTreeMatchesWindowOracle replays whole quantile-regime trees —
// MinLeaf above 1, where the grower rejects proposed splits after the
// partition — node by node in the grower's preorder with the window
// oracle on a same-seeded RNG. Every internal node must carry the
// oracle's split, and every leaf the grower reached by search must be one
// where the oracle found no split or MinLeaf rejected it.
func TestBinnedTreeMatchesWindowOracle(t *testing.T) {
	x, y := labeledBlobs(4, 100, 8, 3, 17) // 400 rows > 256 distinct, overlapping classes
	bins := BinFeatures(x)
	if bins.Feature(0).Exact {
		t.Fatal("fixture left the quantile regime")
	}
	const classes = 4
	for _, cfg := range []TreeConfig{
		{MinLeaf: 2},
		{MinLeaf: 5, Features: 3},
		{MinLeaf: 3, MaxDepth: 5, Features: 2},
	} {
		idx := make([]int, x.Rows())
		br := rng.New(3)
		for i := range idx {
			idx[i] = br.Intn(x.Rows())
		}
		tree := buildTreeBinned(x, bins, y, idx, classes, cfg, rng.New(11))
		s := getScratch(x.Cols(), classes, len(idx))
		g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: rng.New(11), s: s}
		rejected := 0
		var walk func(node int32, idx []int, depth int)
		walk = func(node int32, idx []int, depth int) {
			n := tree.Nodes[node]
			counts := make([]int, classes)
			for _, i := range idx {
				counts[y[i]]++
			}
			if pure(counts) || len(idx) < 2*cfg.MinLeaf || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
				if n.Feature >= 0 {
					t.Fatalf("cfg %+v node %d: split where the grower must stop", cfg, node)
				}
				return
			}
			f, th, ok := g.bestSplitWindow(idx, counts)
			var left, right []int
			for _, i := range idx {
				if ok && x.At(i, f) <= th {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			feasible := ok && len(left) >= cfg.MinLeaf && len(right) >= cfg.MinLeaf
			if n.Feature < 0 {
				if ok && !feasible {
					rejected++
				}
				if feasible {
					t.Fatalf("cfg %+v node %d: leaf where the oracle splits feature %d at %v", cfg, node, f, th)
				}
				return
			}
			if !feasible || int(n.Feature) != f || math.Float64bits(n.Threshold) != math.Float64bits(th) {
				t.Fatalf("cfg %+v node %d: tree splits (%d, %v), oracle (%d, %v, ok=%v)", cfg, node, n.Feature, n.Threshold, f, th, ok)
			}
			walk(n.Left, left, depth+1)
			walk(n.Right, right, depth+1)
		}
		walk(0, idx, 0)
		putScratch(s)
		if tree.LeafCount() < 2 || rejected == 0 {
			t.Fatalf("cfg %+v: %d leaves, %d MinLeaf rejections; the fixture must exercise both", cfg, tree.LeafCount(), rejected)
		}
	}
}

// TestBestSplitAllocations pins the split search to zero allocations: the
// occupancy bitmap lives on the stack and the present-class list in the
// scratch.
func TestBestSplitAllocations(t *testing.T) {
	x, bins := scanFixture(t)
	const classes = 9
	r := rng.New(8)
	y := scanLabels(r, classes, classes)
	idx := scanNode(r, 3)
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	s := getScratch(x.Cols(), classes, len(idx))
	defer putScratch(s)
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: TreeConfig{Features: 3}, r: rng.New(1), s: s}
	if a := testing.AllocsPerRun(50, func() { g.bestSplit(idx, counts) }); a != 0 {
		t.Fatalf("bestSplit allocates %v times per call, want 0", a)
	}
}
