// Package forest implements the surrogate supervised model of
// Section 5.1.2: CART decision trees with Gini impurity and a random
// forest classifier (bootstrap bagging, sqrt-feature subsampling, 100
// trees by default) trained on the unsupervised cluster labels so the SHAP
// framework has a function to explain.
package forest

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Node is one 24-byte node of a CART tree stored in a flat arena. Leaves
// have Feature == -1; their class distributions live in the tree's one
// Probs array, so a walk reads split fields only.
type Node struct {
	// Threshold sends samples with x[Feature] <= Threshold left.
	Threshold float64
	// Feature is the split feature index, or -1 for a leaf.
	Feature int32
	// Left and Right are child indices in the tree's node arena. A leaf
	// has no children: its Left is its ordinal among the tree's leaves
	// (its slot in Tree.Probs) and its Right is 0.
	Left, Right int32
	// Samples is the number of training samples that reached the node —
	// the node weight TreeSHAP's path-dependent expectations use.
	Samples int32
}

// Tree is a single CART classification tree.
type Tree struct {
	Nodes []Node
	// Probs holds every leaf's class distribution, Classes entries per
	// leaf in leaf-ordinal order; read it through LeafProbs.
	Probs   []float64
	Classes int
}

// LeafProbs returns the class distribution of leaf node i. The slice
// aliases Probs and must not be modified.
func (t *Tree) LeafProbs(i int) []float64 {
	o := int(t.Nodes[i].Left) * t.Classes
	return t.Probs[o : o+t.Classes : o+t.Classes]
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// Features is the number of features examined per split
	// (0 = all features; forests pass ~sqrt(M)).
	Features int
}

// maxClasses is the most classes a tree can separate: the split search
// keeps each histogram bin's classes in one uint64 mask.
const maxClasses = 64

// BuildTree grows a CART tree on the rows of x indexed by idx, with class
// labels y in [0, classes) and at most 64 classes. A nil idx uses every
// row. The split search is histogram-binned (see Binning).
func BuildTree(x *mat.Dense, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	if len(y) != x.Rows() || classes > maxClasses {
		//lint:allow nopanic paired features and labels derive from one training set with a fixed class count
		panic(fmt.Sprintf("forest: %d labels for %d rows in %d classes (at most %d)", len(y), x.Rows(), classes, maxClasses))
	}
	return buildTreeBinned(x, BinFeatures(x), y, idx, classes, cfg, r)
}

// buildTreeBinned grows a CART tree with histogram-binned split finding.
// The binning is typically shared across a whole forest; idx may be nil
// (every row) and is never mutated. A bootstrap sample draws about 37% of
// its indices as repeats, so the grower works on the sample's distinct
// rows, each weighted by its multiplicity: every count, fill and MinLeaf
// check sums weights, which gives the integers the duplicate-index
// sample would, while the fill and the partition visit each row once.
func buildTreeBinned(x *mat.Dense, bins *Binning, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: r}
	tree, _ := g.build(idx, false)
	return tree
}

// build grows g's tree over the bootstrap sample idx on a pooled scratch.
// With g.prev set, each node that matches a searched node of the previous
// record replays the scans whose inputs did not change (see bestSplit).
// With record set, it also returns the new tree's record.
func (g *binGrow) build(idx []int, record bool) (*Tree, treeRecord) {
	if g.cfg.MinLeaf < 1 {
		g.cfg.MinLeaf = 1
	}
	s := getScratch(g.x.Cols(), g.classes, g.x.Rows())
	defer putScratch(s)
	g.s = s
	if record {
		s.rec.reset()
		g.rec = &s.rec
	}
	root := int32(-1)
	if g.prev != nil && len(g.prev.nodes) > 0 {
		root = 0 // a record lists its searched nodes in pre-order
	}
	rows := s.weigh(idx)
	g.grow(rows, 0, 0, root)
	var rec treeRecord
	if record {
		rec = s.rec.compact(rows)
		g.rec = nil
	}
	return &Tree{Nodes: g.nodes, Probs: g.probs, Classes: g.classes}, rec
}

// binGrow carries shared state during histogram-binned tree construction.
type binGrow struct {
	x       *mat.Dense
	bins    *Binning
	y       []int
	classes int
	cfg     TreeConfig
	r       *rng.Source
	nodes   []Node
	probs   []float64
	s       *growScratch
	// noPrune scores every boundary in full; only the parity tests set it.
	noPrune bool

	// prev is the previous training's record of this tree and changed
	// its per-row change masks (see Record); both are nil on a cold
	// build. rec, when set, collects this build's record.
	prev    *treeRecord
	changed []rowChange
	rec     *treeRecord
	// leaves, when set, receives the arena index of the leaf each of the
	// tree's distinct rows ends in (see bag).
	leaves []int32
	// scanned and reused count the row-feature units of the candidate
	// scans this build ran and replayed: a node's distinct rows per
	// candidate feature.
	scanned, reused int
}

// grow builds the subtree over idx — distinct rows weighted by s.mult, the
// slice of the scratch row arena that starts at lo, which sibling nodes
// partition in place — and returns its arena index and, when recording,
// the record index of its searched node (-1 if it did not search).
// prevNode is the record index of the previous tree's node on the same
// path (-1 if none). The scratch counts buffer is done being read before
// either child recurses, so one buffer serves every depth.
func (g *binGrow) grow(idx []int, lo, depth int, prevNode int32) (int, int32) {
	counts := g.s.counts[:g.classes]
	clear(counts)
	mult := g.s.mult
	total := 0
	for _, i := range idx {
		counts[g.y[i]] += mult[i]
		total += mult[i]
	}
	nodeIdx := len(g.nodes)
	g.nodes = append(g.nodes, Node{Feature: -1, Samples: int32(total)})

	rec := int32(-1)
	stop := pure(counts) ||
		total < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth)
	if !stop {
		if g.rec != nil {
			rec = g.rec.addNode(lo, len(idx))
		}
		feature, threshold, ok := g.bestSplit(idx, counts, prevNode)
		if ok {
			// Stable in-place partition: left-bound rows compact to the
			// front of idx, right-bound rows spill to the aux arena and
			// copy back behind them. Children recurse left first, so
			// recursion order — and with it RNG consumption — matches the
			// exact path's.
			aux := g.s.aux
			nl, na, wl := 0, 0, 0
			for _, i := range idx {
				if g.x.At(i, feature) <= threshold {
					idx[nl] = i
					nl++
					wl += mult[i]
				} else {
					aux[na] = i
					na++
				}
			}
			copy(idx[nl:], aux[:na])
			if wl >= g.cfg.MinLeaf && total-wl >= g.cfg.MinLeaf {
				pl, pr := int32(-1), int32(-1)
				if prevNode >= 0 {
					pl, pr = g.prev.nodes[prevNode].left, g.prev.nodes[prevNode].right
				}
				l, rl := g.grow(idx[:nl], lo, depth+1, pl)
				r, rr := g.grow(idx[nl:], lo+nl, depth+1, pr)
				if rec >= 0 {
					g.rec.nodes[rec].left, g.rec.nodes[rec].right = rl, rr
				}
				g.nodes[nodeIdx].Feature = int32(feature)
				g.nodes[nodeIdx].Threshold = threshold
				g.nodes[nodeIdx].Left = int32(l)
				g.nodes[nodeIdx].Right = int32(r)
				return nodeIdx, rec
			}
		}
	}
	g.probs = appendLeaf(g.nodes, nodeIdx, g.probs, counts, total)
	if g.leaves != nil {
		for _, i := range idx {
			g.leaves[i] = int32(nodeIdx)
		}
	}
	return nodeIdx, rec
}

// appendLeaf makes node i a leaf: it appends the class distribution of
// counts over total samples to probs and points the node's Left at that
// slot.
func appendLeaf(nodes []Node, i int, probs []float64, counts []int, total int) []float64 {
	nodes[i].Left = int32(len(probs) / len(counts))
	for _, n := range counts {
		probs = append(probs, float64(n)/float64(total))
	}
	return probs
}

// pruneEta is the margin of the pruned scoring in bestSplit: a boundary
// whose exact gain is at least pruneEta below the best float gain so far
// is skipped without its float score.
const pruneEta = 1e-9

// pruneSafe reports whether a node of total weighted samples may use the
// pruned scoring: whether 2·total³ < 2^53, so the integer products the
// prune compares convert to float64 exactly (see bestSplit). The first
// clause keeps 2·total³ itself inside int64.
func pruneSafe(total int) bool {
	return total < 1<<20 && 2*total*total*total < 1<<53
}

// pruneBound returns the scaled score q such that a boundary with
// ssL·nR + ssR·nL <= q·nL·nR cannot beat bestGain (see bestSplit).
func pruneBound(bestGain, parentGini float64, total int) float64 {
	return (bestGain + 1 - parentGini - pruneEta) * float64(total)
}

// bestSplit finds the Gini-optimal split of the weighted rows idx over a
// random feature subset by accumulating a per-bin class-count histogram
// (one O(n) pass per feature instead of an O(n log n) sort) and scanning
// bin boundaries cumulatively. Candidate boundaries sit between
// consecutive bins that are non-empty at this node — exactly the
// adjacent-distinct-value positions the exact search visits — scanned in
// the same ascending order with the same strict-improvement rule, so
// exact-mode columns reproduce its choices bit for bit.
//
// The scan touches only what the node holds: the fill marks each occupied
// bin in a 256-bit bitmap that the scan walks word by word, and ORs each
// row's class into its bin's class mask, so a bin's update runs over the
// classes that bin holds. A class absent from a bin adds zero to every
// count, so skipping it changes no integer.
//
// Pruned scoring. Both scans keep ssL and ssR, the integer sums of squared
// class counts left and right of the boundary. The weighted Gini of a
// boundary is exactly 1 − S/total with S = ssL/nL + ssR/nR, so its exact
// gain is G = parentGini − 1 + S/total, and G > bestGain exactly when
// ssL·nR + ssR·nL > (bestGain + 1 − parentGini)·total·nL·nR. A boundary is
// skipped when ssL·nR + ssR·nL <= qmax·nL·nR with qmax = pruneBound(…),
// which puts its G at most pruneEta (1e-9) plus a few ulps below bestGain.
// The float gains the scans compute are each within 1e-13 of G (about
// 1e-14 at K = 9: a Gini sum over at most 64 classes with a handful of
// roundings per term, on values of order 1), so
// a skipped boundary's float gain is below bestGain and could not have
// passed the strict > test; every other boundary is scored by the
// unchanged float expressions, so the chosen split is bit-identical to a
// full scan, ties included. The comparison is exact as long as its integer
// operands are: ssL <= nL² and ssR <= nR², so ssL·nR + ssR·nL <=
// nL·nR·total <= total³ and nL·nR <= total², and pruneSafe admits only
// nodes with 2·total³ < 2^53, where both convert to float64 without
// rounding (and no int64 product overflows).
//
// Replay. prevNode, when not -1, is the previous record's node on the same
// path. If that node held exactly these rows and drew the same candidates
// in the same order, and no row here changed label (reusable), a
// candidate whose bin codes no row here changed is not scanned: its scan
// would fill the same histogram and score the same boundaries bit for
// bit. A scan's result depends on the entry best gain B only through
// whether its best boundary beats B: when it does, the running best
// becomes that boundary's (gain, bins) — the first maximum, whatever B
// was, since the prune skips no boundary that could be it — and when it
// does not, nothing changes. So a recorded improvement is replayed as an
// improvement exactly when its gain beats the new running best, and as no
// change otherwise. A recorded non-improvement only proves the feature's
// gains are at most the old entry best, so it is replayed only when the
// new entry best is at least that. The threshold is always derived from
// the current binning, so a replay returns what the full scan would.
func (g *binGrow) bestSplit(idx []int, parentCounts []int, prevNode int32) (feature int, threshold float64, ok bool) {
	nFeatures := g.x.Cols()
	candidates := nFeatures
	if g.cfg.Features > 0 && g.cfg.Features < nFeatures {
		candidates = g.cfg.Features
	}
	perm := g.s.perm[:nFeatures]
	g.r.PermInto(perm)
	perm = perm[:candidates]

	// Node weight and parent sum of squared class counts, shared by every
	// feature scan of this node.
	total, parentSq := 0, 0
	for _, n := range parentCounts {
		total += n
		parentSq += n * n
	}
	parentGini := gini(parentCounts, total)
	bestGain := 1e-12
	prune := !g.noPrune && pruneSafe(total)
	qmax := pruneBound(bestGain, parentGini, total)
	lo, hi := 0, 0 // the best boundary's bins

	// The previous scan of this node, when it may be replayed: its
	// candidates, the features whose codes changed under its rows, the
	// index of its next recorded improvement and its running best gain
	// entering the candidate.
	var old []uint8
	var changed rowChange
	next, oldBest := 0, 1e-12
	if prevNode >= 0 {
		old, changed, next = g.reusable(idx, perm, prevNode)
	}

	leftCounts := g.s.left[:g.classes]
	rightCounts := g.s.right[:g.classes]

	// hist and mask are all-zero on entry (the scratch invariant); each
	// feature's fill is undone bin by bin as the boundary scan consumes
	// it, so per-node cost tracks the bins actually touched instead of the
	// full MaxBins × classes arena. occ likewise returns to zero word by
	// word.
	hist := g.s.hist
	mask := &g.s.mask
	mult := g.s.mult
	classes := g.classes
	y := g.y
	var occ [MaxBins / 64]uint64

	for j, f := range perm {
		if old != nil {
			fresh := !changed.has(f)
			if old[j]&improvedBit != 0 {
				gain, bins := g.prev.gains[next], g.prev.bins[2*next:2*next+2]
				next++
				oldBest = gain
				if fresh {
					g.reused += len(idx)
					improved := gain > bestGain
					if improved {
						bestGain = gain
						qmax = pruneBound(bestGain, parentGini, total)
						feature, lo, hi = f, int(bins[0]), int(bins[1])
						ok = true
					}
					g.rec.addCandidate(f, improved, bestGain, lo, hi)
					continue
				}
			} else if fresh && bestGain >= oldBest {
				g.reused += len(idx)
				g.rec.addCandidate(f, false, 0, 0, 0)
				continue
			}
		}
		g.scanned += len(idx)
		entry := bestGain // every improvement raises it strictly

		col := g.bins.codes.Col(f)
		for _, i := range idx {
			b, c := col[i], y[i]
			hist[int(b)*classes+c] += mult[i]
			mask[b] |= 1 << c
			occ[b>>6] |= 1 << (b & 63)
		}

		copy(rightCounts, parentCounts)
		clear(leftCounts)
		exact := g.bins.feats[f].Exact
		nLeft, ssL, ssR := 0, 0, parentSq
		prev := -1
		for w := range occ {
			word := occ[w]
			occ[w] = 0
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				if prev >= 0 {
					nRight := total - nLeft
					if !prune || float64(ssL*nRight+ssR*nLeft) > qmax*float64(nLeft*nRight) {
						var weighted float64
						if exact {
							// The same gini() float sequence as the
							// sort-based search: the path the bit-identical
							// parity contract covers.
							gl := gini(leftCounts, nLeft)
							gr := gini(rightCounts, nRight)
							weighted = (float64(nLeft)*gl + float64(nRight)*gr) / float64(total)
						} else {
							// Quantile bins are new in the histogram path,
							// so no bit-level contract binds the arithmetic:
							// three divisions per boundary instead of one
							// per class per side.
							weighted = 1 - (float64(ssL)/float64(nLeft)+float64(ssR)/float64(nRight))/float64(total)
						}
						if gain := parentGini - weighted; gain > bestGain {
							bestGain = gain
							qmax = pruneBound(bestGain, parentGini, total)
							feature, lo, hi = f, prev, b
							ok = true
						}
					}
				}
				row := hist[b*classes : b*classes+classes]
				for m := mask[b]; m != 0; m &= m - 1 {
					c := bits.TrailingZeros64(m)
					h := row[c]
					ssL += h * (h + 2*leftCounts[c])
					ssR += h * (h - 2*rightCounts[c])
					leftCounts[c] += h
					rightCounts[c] -= h
					nLeft += h
					row[c] = 0
				}
				mask[b] = 0
				prev = b
			}
		}
		g.rec.addCandidate(f, bestGain > entry, bestGain, lo, hi)
	}
	if !ok {
		return 0, 0, false
	}
	return feature, g.bins.splitThreshold(feature, lo, hi), true
}

// reusable returns the candidate record of previous node p, its next
// improvement's index and the features whose bin codes changed under idx
// when the node may replay p's scans: p held exactly the rows idx, drew
// the candidates perm in order, and no row of idx changed label. It
// returns a nil record otherwise. The row-set check stamps idx into the
// scratch and looks up each of p's rows, O(len(idx)).
func (g *binGrow) reusable(idx, perm []int, p int32) (old []uint8, changed rowChange, next int) {
	pn := &g.prev.nodes[p]
	c := len(perm)
	old = g.prev.cands[int(p)*c : int(p)*c+c]
	if int(pn.n) != len(idx) {
		return nil, changed, 0
	}
	for j, f := range perm {
		if int(old[j]&^improvedBit) != f {
			return nil, changed, 0
		}
	}
	stamp, e := g.s.nextStamp()
	for _, i := range idx {
		stamp[i] = e
		m := &g.changed[i]
		changed[0] |= m[0]
		changed[1] |= m[1]
	}
	for _, i := range g.prev.rows[pn.lo : int(pn.lo)+int(pn.n)] {
		if stamp[i] != e {
			return nil, changed, 0
		}
	}
	if changed.has(labelBit) {
		return nil, changed, 0
	}
	return old, changed, int(pn.gain)
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	ft := float64(total)
	for _, c := range counts {
		// Skipping zero counts is bit-identical (g - 0.0 == g exactly)
		// and saves the division on the mostly-pure deep nodes.
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		g -= p * p
	}
	return g
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// leaf returns the arena index of the leaf x falls into — the one tree
// walk every predict path (single-row, batch block, OOB vote) shares.
func (t *Tree) leaf(x []float64) int {
	nodes := t.Nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.Feature < 0 {
			return int(i)
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// PredictProbs returns the class-probability vector for a sample. The
// slice aliases the tree's Probs and must not be modified.
func (t *Tree) PredictProbs(x []float64) []float64 {
	return t.LeafProbs(t.leaf(x))
}

// Predict returns the majority class for a sample.
func (t *Tree) Predict(x []float64) int {
	return argmax(t.PredictProbs(x))
}

// argmax returns the index of the first maximum of p.
func argmax(p []float64) int {
	best, bestP := 0, math.Inf(-1)
	for c, v := range p {
		if v > bestP {
			bestP = v
			best = c
		}
	}
	return best
}

// Depth returns the maximum depth of the tree (0 for a lone leaf).
func (t *Tree) Depth() int {
	var walk func(node int32, d int) int
	walk = func(node int32, d int) int {
		n := t.Nodes[node]
		if n.Feature < 0 {
			return d
		}
		l := walk(n.Left, d+1)
		r := walk(n.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	return walk(0, 0)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int {
	count := 0
	for _, n := range t.Nodes {
		if n.Feature < 0 {
			count++
		}
	}
	return count
}
