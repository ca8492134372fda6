package forest

import (
	"context"
	"sort"

	"repro/internal/mat"
	"repro/internal/rng"
)

// This file holds the sort-based exact split search the histogram-binned
// grower replaced. It is the reference the parity tests compare against:
// on columns with at most MaxBins distinct values the two must grow
// bit-identical trees, with the same RNG consumption.

// buildTreeExact grows a CART tree with the sort-based split search.
func buildTreeExact(x *mat.Dense, y []int, idx []int, classes int, cfg TreeConfig, r *rng.Source) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if idx == nil {
		idx = make([]int, x.Rows())
		for i := range idx {
			idx[i] = i
		}
	}
	g := &growContext{x: x, y: y, classes: classes, cfg: cfg, r: r}
	g.grow(idx, 0)
	return &Tree{Nodes: g.nodes, Probs: g.probs, Classes: classes}
}

// trainExact is Train with every tree grown by buildTreeExact.
func trainExact(x *mat.Dense, y []int, classes int, cfg Config) *Forest {
	cfg = cfg.withDefaults(x.Cols())
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Features: cfg.Features}
	f, _ := bag(context.Background(), x, y, classes, cfg, func(_ int, idx []int, r *rng.Source, _ []int32) *Tree {
		return buildTreeExact(x, y, idx, classes, treeCfg, r)
	})
	return f
}

// growContext carries shared state during recursive tree construction on
// the exact-sort path.
type growContext struct {
	x       *mat.Dense
	y       []int
	classes int
	cfg     TreeConfig
	r       *rng.Source
	nodes   []Node
	probs   []float64
}

func classCounts(y []int, idx []int, classes int) []int {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

// grow builds the subtree over idx and returns its arena index.
func (g *growContext) grow(idx []int, depth int) int {
	counts := classCounts(g.y, idx, g.classes)
	nodeIdx := len(g.nodes)
	g.nodes = append(g.nodes, Node{Feature: -1, Samples: int32(len(idx))})

	stop := pure(counts) ||
		len(idx) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth)
	if !stop {
		feature, threshold, ok := g.bestSplit(idx, counts)
		if ok {
			var left, right []int
			for _, i := range idx {
				if g.x.At(i, feature) <= threshold {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			if len(left) >= g.cfg.MinLeaf && len(right) >= g.cfg.MinLeaf {
				l := g.grow(left, depth+1)
				r := g.grow(right, depth+1)
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

// bestSplit searches a random feature subset for the Gini-optimal split.
func (g *growContext) bestSplit(idx []int, parentCounts []int) (feature int, threshold float64, ok bool) {
	nFeatures := g.x.Cols()
	candidates := nFeatures
	if g.cfg.Features > 0 && g.cfg.Features < nFeatures {
		candidates = g.cfg.Features
	}
	perm := g.r.Perm(nFeatures)[:candidates]

	total := len(idx)
	parentGini := gini(parentCounts, total)
	bestGain := 1e-12
	ok = false

	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	leftCounts := make([]int, g.classes)
	rightCounts := make([]int, g.classes)

	for _, f := range perm {
		for k, i := range idx {
			vals[k] = g.x.At(i, f)
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

		copy(rightCounts, parentCounts)
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		nLeft := 0
		for pos := 0; pos < len(order)-1; pos++ {
			i := idx[order[pos]]
			leftCounts[g.y[i]]++
			rightCounts[g.y[i]]--
			nLeft++
			v := vals[order[pos]]
			next := vals[order[pos+1]]
			// Sorted neighbours compared for exact duplication, no arithmetic.
			if v == next {
				continue // cannot split between equal values
			}
			gl := gini(leftCounts, nLeft)
			gr := gini(rightCounts, total-nLeft)
			weighted := (float64(nLeft)*gl + float64(total-nLeft)*gr) / float64(total)
			if gain := parentGini - weighted; gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (v + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}
