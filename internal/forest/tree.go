// Package forest implements the surrogate supervised model of
// Section 5.1.2: CART decision trees with Gini impurity and a random
// forest classifier (bootstrap bagging, sqrt-feature subsampling, 100
// trees by default) trained on the unsupervised cluster labels so the SHAP
// framework has a function to explain.
package forest

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Node is one node of a CART tree stored in a flat arena. Leaves have
// Feature == -1 and carry a class-probability distribution.
type Node struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int
	// Threshold sends samples with x[Feature] <= Threshold left.
	Threshold float64
	// Left and Right are child indices in the tree's node arena.
	Left, Right int
	// Probs is the class distribution at a leaf (nil for internal nodes).
	Probs []float64
	// Samples is the number of training samples that reached the node —
	// the node weight TreeSHAP's path-dependent expectations use.
	Samples int
}

// Tree is a single CART classification tree.
type Tree struct {
	Nodes   []Node
	Classes int
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
	return &Tree{Nodes: g.nodes, Classes: classes}
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
	g.nodes = append(g.nodes, Node{Feature: -1, Samples: len(idx)})

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
				g.nodes[nodeIdx].Feature = feature
				g.nodes[nodeIdx].Threshold = threshold
				g.nodes[nodeIdx].Left = l
				g.nodes[nodeIdx].Right = r
				return nodeIdx
			}
		}
	}
	// Leaf.
	probs := make([]float64, g.classes)
	for c, n := range counts {
		probs[c] = float64(n) / float64(len(idx))
	}
	g.nodes[nodeIdx].Probs = probs
	return nodeIdx
}

// bestSplit finds the Gini-optimal split over a random feature subset by
// accumulating a per-bin class-count histogram (one O(n) pass per feature
// instead of an O(n log n) sort) and scanning bin boundaries cumulatively.
// Candidate boundaries sit between consecutive bins that are non-empty at
// this node — exactly the adjacent-distinct-value positions the exact
// search visits — scanned in the same ascending order with the same
// strict-improvement rule, so exact-mode columns reproduce its choices
// bit for bit.
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
	// feature scan of this node.
	parentSq := 0
	for _, c := range parentCounts {
		parentSq += c * c
	}

	leftCounts := g.s.left[:g.classes]
	rightCounts := g.s.right[:g.classes]

	// hist and binCount are all-zero on entry (the scratch invariant);
	// each feature's fill is undone bin by bin as the boundary scan
	// consumes it, so per-node cost tracks the bins actually touched
	// instead of the full MaxBins × classes arena.
	hist := g.s.hist
	binCount := g.s.binCount
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
			// Exact-mode scan: evaluate each boundary with the same gini()
			// float sequence as the sort-based search — this is the path the
			// bit-identical parity contract covers.
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
		// Quantile-mode scan: same boundaries, same ascending order and
		// strict-improvement rule, but each side's Gini comes from integer
		// sums of squared class counts maintained incrementally as bins
		// cross the boundary — three divisions per boundary instead of one
		// per class per side. Quantile bins are new in the histogram path,
		// so no bit-level contract binds the arithmetic; the score is
		// algebraically the same weighted Gini.
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

// PredictProbs returns the class-probability vector for a sample.
func (t *Tree) PredictProbs(x []float64) []float64 {
	node := 0
	for t.Nodes[node].Feature >= 0 {
		n := t.Nodes[node]
		if x[n.Feature] <= n.Threshold {
			node = n.Left
		} else {
			node = n.Right
		}
	}
	return t.Nodes[node].Probs
}

// Predict returns the majority class for a sample.
func (t *Tree) Predict(x []float64) int {
	probs := t.PredictProbs(x)
	best, bestP := 0, math.Inf(-1)
	for c, p := range probs {
		if p > bestP {
			bestP = p
			best = c
		}
	}
	return best
}

// Depth returns the maximum depth of the tree (0 for a lone leaf).
func (t *Tree) Depth() int {
	var walk func(node, d int) int
	walk = func(node, d int) int {
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
