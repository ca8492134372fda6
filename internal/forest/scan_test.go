package forest

import (
	"context"
	"math"
	"math/big"
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

// trainWindow is Train with every tree grown by buildTreeWindow.
func trainWindow(x *mat.Dense, y []int, classes int, cfg Config) *Forest {
	cfg = cfg.withDefaults(x.Cols())
	bins := BinFeatures(x)
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Features: cfg.Features}
	f, _ := bag(context.Background(), x, y, classes, cfg, func(_ int, idx []int, r *rng.Source, _ []int32) *Tree {
		return buildTreeWindow(x, bins, y, idx, classes, treeCfg, r)
	})
	return f
}

// buildTreeWindow is the duplicate-index grower the weighted one replaced:
// every node holds the bootstrap's indices, repeats included, and searches
// them with bestSplitWindow.
func buildTreeWindow(x *mat.Dense, bins *Binning, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	s := getScratch(x.Cols(), classes, x.Rows())
	defer putScratch(s)
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: r, s: s}
	g.growWindow(idx, 0)
	return &Tree{Nodes: g.nodes, Probs: g.probs, Classes: classes}
}

// growWindow builds the subtree over the duplicate-index node idx.
func (g *binGrow) growWindow(idx []int, depth int) int {
	counts := nodeCounts(g.y, idx, g.classes)
	nodeIdx := len(g.nodes)
	g.nodes = append(g.nodes, Node{Feature: -1, Samples: int32(len(idx))})
	stop := pure(counts) ||
		len(idx) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth)
	if !stop {
		if feature, threshold, ok := g.bestSplitWindow(idx, counts); ok {
			var left, right []int
			for _, i := range idx {
				if g.x.At(i, feature) <= threshold {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			if len(left) >= g.cfg.MinLeaf && len(right) >= g.cfg.MinLeaf {
				l := g.growWindow(left, depth+1)
				r := g.growWindow(right, depth+1)
				g.nodes[nodeIdx].Feature = int32(feature)
				g.nodes[nodeIdx].Threshold = threshold
				g.nodes[nodeIdx].Left = int32(l)
				g.nodes[nodeIdx].Right = int32(r)
				return nodeIdx
			}
		}
	}
	g.probs = appendLeaf(g.nodes, nodeIdx, g.probs, counts, len(idx))
	return nodeIdx
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

// split is one split search's answer and the RNG state it left behind.
type split struct {
	feature   int
	threshold uint64 // float64 bits
	ok        bool
	rng       rng.Source
}

// nodeCounts returns the class counts of the duplicate-index node idx.
func nodeCounts(y, idx []int, classes int) []int {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

// weightedSplit runs bestSplit on the duplicate-index node idx, handed
// over as its distinct rows and their multiplicities, with pruned scoring
// on or off, and checks the scratch's all-zero invariant afterwards.
func weightedSplit(t *testing.T, x *mat.Dense, bins *Binning, y []int, classes int, cfg TreeConfig, idx []int, seed uint64, noPrune bool) split {
	t.Helper()
	s := getScratch(x.Cols(), classes, x.Rows())
	defer putScratch(s)
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: rng.New(seed), s: s, noPrune: noPrune}
	f, th, ok := g.bestSplit(s.weigh(idx), nodeCounts(y, idx, classes), -1)
	// The fill's arenas must be all zero again for the next search.
	for k, h := range s.hist {
		if h != 0 {
			t.Fatalf("hist[%d] = %d after the scan, want the all-zero invariant", k, h)
		}
	}
	for b, m := range s.mask {
		if m != 0 {
			t.Fatalf("mask[%d] = %#x after the scan, want the all-zero invariant", b, m)
		}
	}
	return split{f, math.Float64bits(th), ok, *g.r}
}

// windowSplit runs the window oracle on the duplicate-index node idx.
func windowSplit(x *mat.Dense, bins *Binning, y []int, classes int, cfg TreeConfig, idx []int, seed uint64) split {
	s := getScratch(x.Cols(), classes, x.Rows())
	defer putScratch(s)
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: rng.New(seed), s: s}
	f, th, ok := g.bestSplitWindow(idx, nodeCounts(y, idx, classes))
	return split{f, math.Float64bits(th), ok, *g.r}
}

// scanNodes draws n random split-search cases on the scan fixture: the
// labels, the node, the feature-subset size and the search's RNG seed.
// Nodes cover the bitmap's word-edge bins, single-bin nodes, bootstrap
// draws with repeats, one-, two-, three- and nine-class labelings, exact
// and quantile columns, and every feature-subset size.
func scanNodes(t *testing.T, n int, fn func(trial int, y, idx []int, cfg TreeConfig, seed uint64)) {
	x, _ := scanFixture(t)
	const classes = 9
	r := rng.New(5)
	for trial := 0; trial < n; trial++ {
		y := scanLabels(r, classes, []int{1, 2, 3, classes}[trial%4])
		idx := scanNode(r, trial%5)
		cfg := TreeConfig{Features: trial % (x.Cols() + 1)}
		fn(trial, y, idx, cfg, r.Uint64())
	}
}

// TestBestSplitMatchesWindowOracle compares the weighted, class-sparse,
// pruned scan with the min/max-window scan of the duplicate-index grower
// on random nodes: the scan gets each node's distinct rows and their
// multiplicities, the oracle the bootstrap indices themselves. Both must
// return the same feature, threshold bits and ok, and leave the same RNG
// state.
func TestBestSplitMatchesWindowOracle(t *testing.T) {
	x, bins := scanFixture(t)
	scanNodes(t, 2000, func(trial int, y, idx []int, cfg TreeConfig, seed uint64) {
		got := weightedSplit(t, x, bins, y, 9, cfg, idx, seed, false)
		if want := windowSplit(x, bins, y, 9, cfg, idx, seed); got != want {
			t.Fatalf("trial %d (kind %d, %d samples, counts %v, cfg %+v): weighted scan %+v, window oracle %+v",
				trial, trial%5, len(idx), nodeCounts(y, idx, 9), cfg, got, want)
		}
	})
}

// TestPrunedScanMatchesFullScan runs the scan with pruned scoring on and
// off over the same random nodes: skipping the boundaries the prune
// rejects must never change the answer.
func TestPrunedScanMatchesFullScan(t *testing.T) {
	x, bins := scanFixture(t)
	scanNodes(t, 2000, func(trial int, y, idx []int, cfg TreeConfig, seed uint64) {
		on := weightedSplit(t, x, bins, y, 9, cfg, idx, seed, false)
		if off := weightedSplit(t, x, bins, y, 9, cfg, idx, seed, true); on != off {
			t.Fatalf("trial %d (kind %d, %d samples, cfg %+v): pruned %+v, full %+v", trial, trial%5, len(idx), cfg, on, off)
		}
	})
}

// TestBestSplitTiesKeepFirstBoundary feeds nodes whose class layout is a
// mirror image along a column, so each boundary and its mirror score
// exactly equal gains (the float sums only swap operands). The strict
// improvement rule keeps the first boundary of every tie; pruning must not
// let a later twin win.
func TestBestSplitTiesKeepFirstBoundary(t *testing.T) {
	// Exact column 0…7 labelled 0 0 1 1 1 1 0 0: the boundaries after 1
	// and after 5 tie for the best gain, so the split must sit at 1.5. The
	// second node draws the end rows twice, symmetrically.
	x := mat.NewDense(8, 2)
	for i := 0; i < 8; i++ {
		x.Row(i)[0] = float64(i)
		x.Row(i)[1] = float64(i) // a twin column: the first feature searched wins
	}
	y := []int{0, 0, 1, 1, 1, 1, 0, 0}
	bins := BinFeatures(x)
	for _, idx := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 0, 1, 2, 3, 4, 5, 6, 7, 7},
	} {
		for seed := uint64(0); seed < 8; seed++ {
			for _, noPrune := range []bool{false, true} {
				got := weightedSplit(t, x, bins, y, 2, TreeConfig{}, idx, seed, noPrune)
				want := windowSplit(x, bins, y, 2, TreeConfig{}, idx, seed)
				if got != want || math.Float64frombits(got.threshold) != 1.5 {
					t.Fatalf("node %v seed %d noPrune %v: scan %+v (threshold %v), oracle %+v; want the first tied boundary 1.5",
						idx, seed, noPrune, got, math.Float64frombits(got.threshold), want)
				}
			}
		}
	}

	// Quantile columns of 512 distinct values (two per bin) whose labels
	// mirror around the middle: every boundary after value 2j+1 ties with
	// the one after 509−2j, so the winner must lie in the lower half.
	const n = 512
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		classes := 2 + trial%8
		x := mat.NewDense(n, 3)
		y := make([]int, n)
		for i := 0; i < n/2; i++ {
			c := r.Intn(classes)
			if i < n/8 {
				c = trial % classes // a pure run at both ends makes the best gain large
			}
			y[i], y[n-1-i] = c, c
		}
		for i := 0; i < n; i++ {
			x.Row(i)[0] = float64(i)
			x.Row(i)[1] = float64(n - 1 - i) // the mirror column
			x.Row(i)[2] = r.Float64()
		}
		bins := BinFeatures(x)
		if bins.Feature(0).Exact {
			t.Fatal("mirror fixture left the quantile regime")
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for _, noPrune := range []bool{false, true} {
			got := weightedSplit(t, x, bins, y, classes, TreeConfig{}, idx, uint64(trial), noPrune)
			if want := windowSplit(x, bins, y, classes, TreeConfig{}, idx, uint64(trial)); got != want {
				t.Fatalf("trial %d noPrune %v: scan %+v, oracle %+v", trial, noPrune, got, want)
			}
			if th := math.Float64frombits(got.threshold); got.feature != 2 && th > (n-1)/2.0 {
				t.Fatalf("trial %d noPrune %v: feature %d split at %v, past the first of its mirrored twins", trial, noPrune, got.feature, th)
			}
		}
	}
}

// TestPruneGuard pins the 2^53 guard of the pruned scoring at its exact
// boundary, and checks that nodes on both sides of it, with the weight
// carried by multiplicities, still split as the window oracle does.
func TestPruneGuard(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 53)
	for _, total := range []int{1, 1000, 165140, 165141, 1 << 20, 1 << 40} {
		v := big.NewInt(int64(total))
		v.Mul(v, v).Mul(v, big.NewInt(int64(total))).Lsh(v, 1)
		if want := v.Cmp(limit) < 0; pruneSafe(total) != want {
			t.Fatalf("pruneSafe(%d) = %v, want %v (2·total³ < 2^53)", total, pruneSafe(total), want)
		}
	}

	x, bins := scanFixture(t)
	r := rng.New(13)
	for _, total := range []int{165140, 165141, 300000} {
		y := scanLabels(r, 9, 4)
		// Twelve distinct rows carry the whole weight.
		rows := make([]int, 12)
		for k := range rows {
			rows[k] = r.Intn(scanRows)
		}
		idx := make([]int, total)
		for k := range idx {
			idx[k] = rows[r.Intn(len(rows))]
		}
		for _, noPrune := range []bool{false, true} {
			got := weightedSplit(t, x, bins, y, 9, TreeConfig{}, idx, 3, noPrune)
			if want := windowSplit(x, bins, y, 9, TreeConfig{}, idx, 3); got != want {
				t.Fatalf("total %d noPrune %v: scan %+v, oracle %+v", total, noPrune, got, want)
			}
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
		s := getScratch(x.Cols(), classes, x.Rows())
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
// occupancy bitmap lives on the stack and the class masks and
// multiplicities in the scratch.
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
	s := getScratch(x.Cols(), classes, x.Rows())
	defer putScratch(s)
	rows := s.weigh(idx)
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: TreeConfig{Features: 3}, r: rng.New(1), s: s}
	if a := testing.AllocsPerRun(50, func() { g.bestSplit(rows, counts, -1) }); a != 0 {
		t.Fatalf("bestSplit allocates %v times per call, want 0", a)
	}
}
