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

// BuildTree grows a CART tree on the rows of x indexed by idx, with class
// labels y in [0, classes). A nil idx uses every row. The split search is
// histogram-binned (see Binning).
func BuildTree(x *mat.Dense, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	if len(y) != x.Rows() {
		//lint:allow nopanic paired features and labels derive from one training set
		panic(fmt.Sprintf("forest: %d labels for %d rows", len(y), x.Rows()))
	}
	return buildTreeBinned(x, BinFeatures(x), y, idx, classes, cfg, r)
}

// buildTreeBinned grows a CART tree with histogram-binned split finding.
// The binning is typically shared across a whole forest; idx may be nil
// (every row) and is copied into a scratch arena, never mutated.
func buildTreeBinned(x *mat.Dense, bins *Binning, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	n := x.Rows()
	if idx != nil {
		n = len(idx)
	}
	s := getScratch(x.Cols(), classes, n)
	defer putScratch(s)
	root := s.idx[:n]
	if idx == nil {
		for i := range root {
			root[i] = i
		}
	} else {
		copy(root, idx)
	}
	g := &binGrow{x: x, bins: bins, y: y, classes: classes, cfg: cfg, r: r, s: s}
	g.grow(root, 0)
	return &Tree{Nodes: g.nodes, Probs: g.probs, Classes: classes}
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
}

// grow builds the subtree over idx — a slice of the scratch index arena
// that sibling nodes partition in place — and returns its arena index.
// The scratch counts buffer is done being read before either child
// recurses, so one buffer serves every depth.
func (g *binGrow) grow(idx []int, depth int) int {
	counts := g.s.counts[:g.classes]
	for c := range counts {
		counts[c] = 0
	}
	for _, i := range idx {
		counts[g.y[i]]++
	}
	nodeIdx := len(g.nodes)
	g.nodes = append(g.nodes, Node{Feature: -1, Samples: int32(len(idx))})

	stop := pure(counts) ||
		len(idx) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth)
	if !stop {
		feature, threshold, ok := g.bestSplit(idx, counts)
		if ok {
			// Stable in-place partition: left-bound samples compact to the
			// front of idx, right-bound samples spill to the aux arena and
			// copy back behind them. Order matches the append-based
			// partition of the exact path, so recursion order — and with
			// it RNG consumption — is identical.
			aux := g.s.aux
			nl, na := 0, 0
			for _, i := range idx {
				if g.x.At(i, feature) <= threshold {
					idx[nl] = i
					nl++
				} else {
					aux[na] = i
					na++
				}
			}
			copy(idx[nl:], aux[:na])
			if nl >= g.cfg.MinLeaf && na >= g.cfg.MinLeaf {
				l := g.grow(idx[:nl], depth+1)
				r := g.grow(idx[nl:], depth+1)
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

// bestSplit finds the Gini-optimal split over a random feature subset by
// accumulating a per-bin class-count histogram (one O(n) pass per feature
// instead of an O(n log n) sort) and scanning bin boundaries cumulatively.
// Candidate boundaries sit between consecutive bins that are non-empty at
// this node — exactly the adjacent-distinct-value positions the exact
// search visits — scanned in the same ascending order with the same
// strict-improvement rule, so exact-mode columns reproduce its choices
// bit for bit.
//
// The scan touches only what the node holds: the fill marks each occupied
// bin in a 256-bit bitmap that the scan walks word by word, and each bin's
// update runs over the classes present at the node. An absent class has
// a zero count in every bin, so skipping it changes no integer.
func (g *binGrow) bestSplit(idx []int, parentCounts []int) (feature int, threshold float64, ok bool) {
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

	// Parent sum of squared class counts, shared by every quantile-mode
	// feature scan of this node, and the node's classes in ascending order.
	parentSq := 0
	present := g.s.present[:0]
	for c, n := range parentCounts {
		if n != 0 {
			parentSq += n * n
			present = append(present, c)
		}
	}

	leftCounts := g.s.left[:g.classes]
	rightCounts := g.s.right[:g.classes]

	// hist is all-zero on entry (the scratch invariant); each feature's
	// fill is undone bin by bin as the boundary scan consumes it, so
	// per-node cost tracks the bins actually touched instead of the full
	// MaxBins × classes arena. occ likewise returns to zero word by word.
	hist := g.s.hist
	classes := g.classes
	y := g.y
	var occ [MaxBins / 64]uint64

	for _, f := range perm {
		col := g.bins.codes.Col(f)
		for _, i := range idx {
			b := col[i]
			hist[int(b)*classes+y[i]]++
			occ[b>>6] |= 1 << (b & 63)
		}

		copy(rightCounts, parentCounts)
		clear(leftCounts)
		nLeft := 0
		prev := -1
		if g.bins.feats[f].Exact {
			// Exact-mode scan: evaluate each boundary with the same gini()
			// float sequence as the sort-based search — this is the path the
			// bit-identical parity contract covers.
			for w := range occ {
				word := occ[w]
				occ[w] = 0
				for ; word != 0; word &= word - 1 {
					b := w<<6 | bits.TrailingZeros64(word)
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
					for _, c := range present {
						h := row[c]
						leftCounts[c] += h
						rightCounts[c] -= h
						nLeft += h
						row[c] = 0
					}
					prev = b
				}
			}
			continue
		}
		// Quantile-mode scan: same boundaries, same ascending order and
		// strict-improvement rule, but each side's Gini comes from integer
		// sums of squared class counts maintained incrementally as bins
		// cross the boundary — three divisions per boundary instead of one
		// per class per side. Quantile bins are new in the histogram path,
		// so no bit-level contract binds the arithmetic; the score is
		// algebraically the same weighted Gini.
		ssL, ssR := 0, parentSq
		for w := range occ {
			word := occ[w]
			occ[w] = 0
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
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
				for _, c := range present {
					h := row[c]
					ssL += h * (h + 2*leftCounts[c])
					ssR += h * (h - 2*rightCounts[c])
					leftCounts[c] += h
					rightCounts[c] -= h
					nLeft += h
					row[c] = 0
				}
				prev = b
			}
		}
	}
	return feature, threshold, ok
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
