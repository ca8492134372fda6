package shap

import (
	"math"

	"repro/internal/forest"
)

// pathExpectation returns E[f(x) | x_S] for a tree under the
// path-dependent convention: features in S follow x, other splits weight
// both children by their training-sample fractions. This is exactly the
// conditional expectation TreeSHAP attributes against.
func pathExpectation(t *forest.Tree, x []float64, inS func(int) bool, class int) float64 {
	var walk func(node int32) float64
	walk = func(node int32) float64 {
		n := t.Nodes[node]
		if n.Feature < 0 {
			return t.LeafProbs(int(node))[class]
		}
		if inS(int(n.Feature)) {
			if x[n.Feature] <= n.Threshold {
				return walk(n.Left)
			}
			return walk(n.Right)
		}
		wl := float64(t.Nodes[n.Left].Samples)
		wr := float64(t.Nodes[n.Right].Samples)
		return (wl*walk(n.Left) + wr*walk(n.Right)) / (wl + wr)
	}
	return walk(0)
}

// BruteForceTreeSHAP computes exact Shapley values of a tree by
// enumerating all 2^nFeatures coalitions (Eq. 4 of the paper). It is
// exponential and exists to verify TreeSHAP; keep nFeatures small.
func BruteForceTreeSHAP(t *forest.Tree, x []float64, class int, nFeatures int) Explanation {
	if nFeatures > 20 {
		//lint:allow nopanic guard against exponential blowup in a verification-only helper
		panic("shap: brute force limited to 20 features")
	}
	phi := make([]float64, nFeatures)
	// Precompute factorials.
	fact := make([]float64, nFeatures+1)
	fact[0] = 1
	for i := 1; i <= nFeatures; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	total := 1 << nFeatures
	// Cache coalition values.
	values := make([]float64, total)
	for mask := 0; mask < total; mask++ {
		m := mask
		values[mask] = pathExpectation(t, x, func(f int) bool { return m&(1<<f) != 0 }, class)
	}
	for i := 0; i < nFeatures; i++ {
		bit := 1 << i
		for mask := 0; mask < total; mask++ {
			if mask&bit != 0 {
				continue
			}
			s := popcount(mask)
			weight := fact[s] * fact[nFeatures-s-1] / fact[nFeatures]
			phi[i] += weight * (values[mask|bit] - values[mask])
		}
	}
	return Explanation{Base: values[0], Phi: phi}
}

// BruteForceForestSHAP averages BruteForceTreeSHAP over the ensemble.
func BruteForceForestSHAP(f *forest.Forest, x []float64, class int, nFeatures int) Explanation {
	phi := make([]float64, nFeatures)
	var base float64
	for _, t := range f.Trees {
		e := BruteForceTreeSHAP(t, x, class, nFeatures)
		base += e.Base
		for i, p := range e.Phi {
			phi[i] += p
		}
	}
	inv := 1 / float64(len(f.Trees))
	for i := range phi {
		phi[i] *= inv
	}
	return Explanation{Base: base * inv, Phi: phi}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// MaxAbsDiff returns the largest absolute difference between two Shapley
// vectors — the verification metric of the ablation bench.
func MaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
