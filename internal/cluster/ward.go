// Package cluster implements the unsupervised-learning layer of the paper:
// agglomerative hierarchical clustering with Ward's minimum-variance
// criterion (Section 4.2.1), dendrogram construction and cutting, the
// Silhouette score and Dunn index used to pick the number of clusters
// (Fig. 2), the Davies-Bouldin index as an additional diagnostic, and a
// k-means baseline for the ablation benches.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Merge is one agglomeration step of the dendrogram. A and B are node ids:
// leaves are 0..N-1; the merge at Merges[s] creates internal node N+s.
type Merge struct {
	A, B int
	// Height is the Ward merge distance (monotone non-decreasing along
	// any root path).
	Height float64
	// Size is the number of leaves under the created node.
	Size int
}

// Linkage is the full merge hierarchy returned by Ward.
type Linkage struct {
	// N is the number of clustered observations.
	N int
	// Merges holds the N-1 agglomeration steps sorted by ascending
	// height, scipy-style.
	Merges []Merge
}

// Ward runs agglomerative clustering with Ward's criterion over the rows
// of x, using the O(N²) nearest-neighbor-chain algorithm with the
// Lance-Williams update. It panics on an empty matrix.
func Ward(x *mat.Dense) *Linkage {
	n := x.Rows()
	if n == 1 {
		return &Linkage{N: 1}
	}
	d2 := mat.PairwiseSqDist(x)
	return WardFromSqDistances(d2)
}

// WardFromSqDistances runs Ward clustering from a precomputed condensed
// matrix of squared Euclidean distances. The input is consumed (mutated).
// Merge heights are the square roots of the merged squared distances.
func WardFromSqDistances(d2 *mat.Condensed) *Linkage {
	return nnChain(d2, mergeInto, math.Sqrt)
}

// nnChain runs the nearest-neighbor-chain algorithm over a condensed
// distance matrix, consuming it. merge is the method's Lance-Williams
// step: it folds slot src into slot dst, rewriting dst's distance to every
// other active slot, then grows size[dst] and deactivates src. height maps
// a merged distance to its dendrogram height.
func nnChain(d *mat.Condensed, merge func(d *mat.Condensed, active []bool, size []int, src, dst int, dij float64), height func(float64) float64) *Linkage {
	n := d.N()
	active := make([]bool, n)
	size := make([]int, n)
	node := make([]int, n) // current dendrogram node id held by each slot
	for i := range active {
		active[i] = true
		size[i] = 1
		node[i] = i
	}

	type rawMerge struct {
		a, b   int // node ids
		height float64
		size   int
	}
	raw := make([]rawMerge, 0, n-1)

	chain := make([]int, 0, n)
	remaining := n
	nextSlotScan := 0

	for remaining > 1 {
		if len(chain) == 0 {
			// Seed the chain with any active slot.
			for !active[nextSlotScan] {
				nextSlotScan++
			}
			chain = append(chain, nextSlotScan)
		}
		x := chain[len(chain)-1]
		// Nearest active neighbor of x, preferring the previous chain
		// element on ties so reciprocity is reached.
		var prev = -1
		if len(chain) >= 2 {
			prev = chain[len(chain)-2]
		}
		best := -1
		bestD := math.Inf(1)
		if prev >= 0 {
			bestD = d.At(x, prev)
			best = prev
		}
		for y := 0; y < n; y++ {
			if y == x || !active[y] {
				continue
			}
			if dv := d.At(x, y); dv < bestD {
				bestD = dv
				best = y
			}
		}
		if best == prev && prev >= 0 {
			// Reciprocal nearest neighbors: merge x and prev.
			chain = chain[:len(chain)-2]
			merge(d, active, size, x, prev, bestD)
			raw = append(raw, rawMerge{
				a: node[prev], b: node[x],
				height: height(bestD),
				size:   size[prev],
			})
			node[prev] = n + len(raw) - 1 // provisional id, relabeled below
			remaining--
		} else {
			chain = append(chain, best)
		}
	}

	// NN-chain emits merges out of height order; sort ascending and
	// relabel internal node ids so Merges[s] creates node N+s, keeping
	// the tree topology intact. Children always have strictly smaller or
	// equal heights, so a stable sort preserves dependencies.
	order := make([]int, len(raw))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return raw[order[i]].height < raw[order[j]].height
	})
	relabel := make(map[int]int, len(raw))
	merges := make([]Merge, len(raw))
	for newIdx, oldIdx := range order {
		m := raw[oldIdx]
		a, b := m.a, m.b
		if a >= n {
			if v, ok := relabel[a]; ok {
				a = v
			}
		}
		if b >= n {
			if v, ok := relabel[b]; ok {
				b = v
			}
		}
		if a > b {
			a, b = b, a
		}
		merges[newIdx] = Merge{A: a, B: b, Height: m.height, Size: m.size}
		relabel[n+oldIdx] = n + newIdx
	}
	return &Linkage{N: n, Merges: merges}
}

// mergeInto merges slot src into slot dst (Ward/Lance-Williams), updating
// distances of dst to every other active slot and deactivating src.
func mergeInto(d2 *mat.Condensed, active []bool, size []int, src, dst int, dij float64) {
	ni := float64(size[dst])
	nj := float64(size[src])
	for k := 0; k < len(active); k++ {
		if k == src || k == dst || !active[k] {
			continue
		}
		nk := float64(size[k])
		dik := d2.At(dst, k)
		djk := d2.At(src, k)
		newD := ((ni+nk)*dik + (nj+nk)*djk - nk*dij) / (ni + nj + nk)
		d2.Set(dst, k, newD)
	}
	size[dst] += size[src]
	active[src] = false
}

// Cut cuts the dendrogram into k flat clusters, returning a label in
// [0, k) for every leaf. Labels are assigned in order of first appearance
// (leaf 0 always gets label 0). A k outside [1, N] — e.g. straight from a
// CLI flag or a config file — is reported as an error; use CutK when k is
// already validated.
func (l *Linkage) Cut(k int) ([]int, error) {
	labels, _, err := l.cutState(k)
	return labels, err
}

// cutState is Cut plus the root bookkeeping the incremental refinement
// needs: rootOf[label] is the dendrogram node id rooting that cluster.
func (l *Linkage) cutState(k int) (labels, rootOf []int, err error) {
	if k < 1 || k > l.N {
		return nil, nil, fmt.Errorf("cluster: cut at k=%d outside [1,%d]", k, l.N)
	}
	parent := make([]int, l.N+len(l.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	// Apply the N-k lowest merges; the k-1 highest remain cut.
	for s := 0; s < l.N-k; s++ {
		m := l.Merges[s]
		node := l.N + s
		parent[find(m.A)] = node
		parent[find(m.B)] = node
	}
	labels = make([]int, l.N)
	rootOf = make([]int, 0, k)
	next := 0
	seen := make(map[int]int)
	for i := 0; i < l.N; i++ {
		root := find(i)
		id, ok := seen[root]
		if !ok {
			id = next
			next++
			seen[root] = id
			rootOf = append(rootOf, root)
		}
		labels[i] = id
	}
	if next != k {
		// The union-find cut applies exactly N-k merges, so any other
		// cluster count means the dendrogram itself is corrupt.
		//lint:allow nopanic dendrogram structural invariant, not reachable from input
		panic(fmt.Sprintf("cluster: cut produced %d clusters, want %d", next, k))
	}
	return labels, rootOf, nil
}

// incrementalCut refines one dendrogram cut across descending k without
// re-running the union-find per candidate: cutting at k applies the N−k
// lowest merges, so the partition at k−1 is the partition at k with
// exactly one more merge applied. Each Refine step joins the two label
// classes under that merge in O(N), against O(N α(N) + merge replay) for
// a from-scratch Cut. The partition at every k is identical to Cut's (the
// flat partition of a dendrogram cut is unique); only the label numbering
// may differ from first-appearance order after the first step, which the
// label-permutation-invariant selection metrics never observe.
type incrementalCut struct {
	l *Linkage
	// K is the current cluster count; Labels holds a dense labeling in
	// [0, K) of the current partition.
	K      int
	Labels []int
	// labelOf maps a root dendrogram node id to its cluster label;
	// rootOf is the inverse, indexed by label.
	labelOf []int
	rootOf  []int
}

// newIncrementalCut starts the refinement at k clusters (labels match
// Cut(k) exactly at this starting point).
func newIncrementalCut(l *Linkage, k int) (*incrementalCut, error) {
	labels, rootOf, err := l.cutState(k)
	if err != nil {
		return nil, err
	}
	c := &incrementalCut{
		l: l, K: k, Labels: labels,
		labelOf: make([]int, l.N+len(l.Merges)),
		rootOf:  rootOf,
	}
	for label, root := range rootOf {
		c.labelOf[root] = label
	}
	return c, nil
}

// Refine applies the next merge, going from K to K−1 clusters. The freed
// label slot is backfilled with the highest label so Labels stay dense.
// Calling Refine at K == 1 is a structural bug.
func (c *incrementalCut) Refine() {
	s := c.l.N - c.K // the first merge Cut(K) did not apply
	m := c.l.Merges[s]
	node := c.l.N + s
	la, lb := c.labelOf[m.A], c.labelOf[m.B]
	keep, freed := la, lb
	if keep > freed {
		keep, freed = freed, keep
	}
	last := c.K - 1
	for i, lab := range c.Labels {
		if lab == freed {
			c.Labels[i] = keep
		} else if lab == last && freed != last {
			c.Labels[i] = freed
		}
	}
	c.labelOf[node] = keep
	c.rootOf[keep] = node
	if freed != last {
		lastRoot := c.rootOf[last]
		c.labelOf[lastRoot] = freed
		c.rootOf[freed] = lastRoot
	}
	c.rootOf = c.rootOf[:last]
	c.K--
}

// CutK is Cut for callers whose k is already validated (the pipeline
// checks its configured K against the antenna count before clustering):
// it panics instead of returning an error, keeping label derivations
// chainable.
func (l *Linkage) CutK(k int) []int {
	labels, err := l.Cut(k)
	if err != nil {
		//lint:allow nopanic validated-k variant, callers check k at the boundary
		panic(err)
	}
	return labels
}

// Threshold returns a dendrogram height that separates exactly k clusters:
// any horizontal cut between the (N-k)-th and (N-k+1)-th merge heights.
// This is the quantity visualized by the dashed lines of Fig. 3.
func (l *Linkage) Threshold(k int) float64 {
	if k <= 1 {
		return math.Inf(1)
	}
	if k > l.N {
		return 0
	}
	hi := l.Merges[l.N-k].Height // first merge NOT applied
	var lo float64
	if l.N-k-1 >= 0 {
		lo = l.Merges[l.N-k-1].Height
	}
	return (lo + hi) / 2
}

// HeightsMonotone reports whether merge heights are non-decreasing — a
// structural invariant of a valid sorted linkage.
func (l *Linkage) HeightsMonotone() bool {
	for i := 1; i < len(l.Merges); i++ {
		if l.Merges[i].Height < l.Merges[i-1].Height-1e-12 {
			return false
		}
	}
	return true
}

// Leaves returns the leaf ids under the given dendrogram node.
func (l *Linkage) Leaves(nodeID int) []int {
	if nodeID < l.N {
		return []int{nodeID}
	}
	m := l.Merges[nodeID-l.N]
	return append(l.Leaves(m.A), l.Leaves(m.B)...)
}
