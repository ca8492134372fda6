package cluster

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Method selects the agglomerative linkage criterion. All four criteria
// are reducible, so the nearest-neighbor-chain algorithm yields exact
// results for each.
type Method int

const (
	// MethodWard minimizes total within-cluster variance (the paper's
	// choice, Section 4.2.1).
	MethodWard Method = iota
	// MethodComplete merges by maximum pairwise distance.
	MethodComplete
	// MethodAverage merges by mean pairwise distance (UPGMA).
	MethodAverage
	// MethodSingle merges by minimum pairwise distance.
	MethodSingle
)

// String returns the linkage name.
func (m Method) String() string {
	switch m {
	case MethodWard:
		return "ward"
	case MethodComplete:
		return "complete"
	case MethodAverage:
		return "average"
	case MethodSingle:
		return "single"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Agglomerative runs hierarchical clustering over the rows of x with the
// given linkage. MethodWard delegates to the Ward implementation; the
// others run the same NN-chain over plain Euclidean distances with their
// Lance-Williams update.
func Agglomerative(x *mat.Dense, method Method) *Linkage {
	if method == MethodWard {
		return Ward(x)
	}
	n := x.Rows()
	if n == 1 {
		return &Linkage{N: 1}
	}
	d := PairwiseDistances(x)
	return agglomerateFromDistances(d, method)
}

// agglomerateFromDistances runs the NN-chain over a condensed Euclidean
// distance matrix, consuming it. Merge heights are the merged distances.
func agglomerateFromDistances(d *mat.Condensed, method Method) *Linkage {
	merge := func(d *mat.Condensed, active []bool, size []int, src, dst int, dij float64) {
		ni, nj := float64(size[dst]), float64(size[src])
		for k := 0; k < len(active); k++ {
			if k == src || k == dst || !active[k] {
				continue
			}
			dik := d.At(dst, k)
			djk := d.At(src, k)
			var v float64
			switch method {
			case MethodComplete:
				v = math.Max(dik, djk)
			case MethodAverage:
				v = (ni*dik + nj*djk) / (ni + nj)
			case MethodSingle:
				v = math.Min(dik, djk)
			default:
				// Method is an enum validated by Agglomerative's entry point;
				// reaching here means a new Method constant missed a case.
				//lint:allow nopanic exhaustive-switch guard over an internal enum
				panic("cluster: unsupported method in update")
			}
			d.Set(dst, k, v)
		}
		size[dst] += size[src]
		active[src] = false
	}
	return nnChain(d, merge, func(h float64) float64 { return h })
}
