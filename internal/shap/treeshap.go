// Package shap implements the explainable-ML layer of Section 5.1: Shapley
// additive explanations for the surrogate random forest. It provides the
// fast path-dependent TreeSHAP algorithm (Lundberg et al.), the
// model-agnostic KernelSHAP approximation, an exponential-time brute-force
// Shapley evaluator used to verify both, and the per-cluster beeswarm
// summaries behind Fig. 5.
package shap

import (
	"fmt"

	"repro/internal/forest"
)

// Explanation is the additive decomposition of one prediction:
// f(x) ≈ Base + Σ Phi[i] (exact for TreeSHAP's path-dependent expectation).
type Explanation struct {
	// Base is the expected model output over the training distribution.
	Base float64
	// Phi holds one Shapley value per feature.
	Phi []float64
}

// Sum returns Base plus all feature contributions.
func (e Explanation) Sum() float64 {
	s := e.Base
	for _, p := range e.Phi {
		s += p
	}
	return s
}

// pathElement is one entry of the TreeSHAP unique path.
type pathElement struct {
	feature      int
	zeroFraction float64
	oneFraction  float64
	pweight      float64
}

// TreeSHAP computes path-dependent SHAP values of a single CART tree for
// the probability of the given class at x. The result satisfies local
// accuracy: Base + ΣPhi equals the tree's predicted class probability.
func TreeSHAP(t *forest.Tree, x []float64, class int, nFeatures int) Explanation {
	if class < 0 || class >= t.Classes {
		//lint:allow nopanic class index comes from the trained forest, not external input
		panic(fmt.Sprintf("shap: class %d out of range", class))
	}
	phi := make([]float64, nFeatures)
	// Arena for nested unique paths: depth d stores its copy at offset
	// d*(d+1)/2, mirroring the reference implementation's layout.
	maxDepth := t.Depth() + 2
	arena := make([]pathElement, (maxDepth+1)*(maxDepth+2)/2)
	ts := &treeShap{tree: t, x: x, class: class, phi: phi, arena: arena}
	ts.recurse(0, 0, 0, 1, 1, -1)
	return Explanation{Base: expectedValue(t, class), Phi: phi}
}

// expectedValue returns the sample-weighted mean leaf value — the
// path-dependent E[f(x)].
func expectedValue(t *forest.Tree, class int) float64 {
	rootSamples := float64(t.Nodes[0].Samples)
	var sum float64
	for i, n := range t.Nodes {
		if n.Feature < 0 {
			sum += float64(n.Samples) / rootSamples * t.LeafProbs(i)[class]
		}
	}
	return sum
}

type treeShap struct {
	tree  *forest.Tree
	x     []float64
	class int
	phi   []float64
	arena []pathElement
}

// extendPath appends a new (zeroFraction, oneFraction, feature) element to
// the unique path and updates the permutation weights.
func extendPath(path []pathElement, uniqueDepth int, zeroFraction, oneFraction float64, feature int) {
	path[uniqueDepth] = pathElement{
		feature:      feature,
		zeroFraction: zeroFraction,
		oneFraction:  oneFraction,
	}
	if uniqueDepth == 0 {
		path[0].pweight = 1
	} else {
		path[uniqueDepth].pweight = 0
	}
	for i := uniqueDepth - 1; i >= 0; i-- {
		path[i+1].pweight += oneFraction * path[i].pweight * float64(i+1) / float64(uniqueDepth+1)
		path[i].pweight = zeroFraction * path[i].pweight * float64(uniqueDepth-i) / float64(uniqueDepth+1)
	}
}

// unwindPath removes the element at pathIndex from the unique path,
// restoring the permutation weights to their pre-extension state.
func unwindPath(path []pathElement, uniqueDepth, pathIndex int) {
	oneFraction := path[pathIndex].oneFraction
	zeroFraction := path[pathIndex].zeroFraction
	nextOnePortion := path[uniqueDepth].pweight

	for i := uniqueDepth - 1; i >= 0; i-- {
		if oneFraction != 0 {
			tmp := path[i].pweight
			path[i].pweight = nextOnePortion * float64(uniqueDepth+1) / (float64(i+1) * oneFraction)
			nextOnePortion = tmp - path[i].pweight*zeroFraction*float64(uniqueDepth-i)/float64(uniqueDepth+1)
		} else {
			path[i].pweight = path[i].pweight * float64(uniqueDepth+1) / (zeroFraction * float64(uniqueDepth-i))
		}
	}
	for i := pathIndex; i < uniqueDepth; i++ {
		path[i].feature = path[i+1].feature
		path[i].zeroFraction = path[i+1].zeroFraction
		path[i].oneFraction = path[i+1].oneFraction
	}
}

// unwoundPathSum returns the total permutation weight if the element at
// pathIndex were unwound, without mutating the path.
func unwoundPathSum(path []pathElement, uniqueDepth, pathIndex int) float64 {
	oneFraction := path[pathIndex].oneFraction
	zeroFraction := path[pathIndex].zeroFraction
	nextOnePortion := path[uniqueDepth].pweight
	var total float64
	for i := uniqueDepth - 1; i >= 0; i-- {
		if oneFraction != 0 {
			tmp := nextOnePortion * float64(uniqueDepth+1) / (float64(i+1) * oneFraction)
			total += tmp
			nextOnePortion = path[i].pweight - tmp*zeroFraction*float64(uniqueDepth-i)/float64(uniqueDepth+1)
		} else {
			total += path[i].pweight / zeroFraction * float64(uniqueDepth+1) / float64(uniqueDepth-i)
		}
	}
	return total
}

// recurse walks the tree keeping the unique path of features split on so
// far. arenaOffset indexes the parent's path copy; each level copies it
// forward so unwinding in one branch cannot corrupt the other.
func (s *treeShap) recurse(nodeIdx, arenaOffset, uniqueDepth int, parentZero, parentOne float64, parentFeature int) {
	// Copy the parent path into this level's arena segment and extend it.
	childOffset := arenaOffset + uniqueDepth + 1
	path := s.arena[childOffset : childOffset+uniqueDepth+2]
	copy(path, s.arena[arenaOffset:arenaOffset+uniqueDepth+1])
	extendPath(path, uniqueDepth, parentZero, parentOne, parentFeature)

	node := s.tree.Nodes[nodeIdx]
	if node.Feature < 0 {
		// Leaf: attribute to every feature on the unique path.
		value := s.tree.LeafProbs(nodeIdx)[s.class]
		for i := 1; i <= uniqueDepth; i++ {
			w := unwoundPathSum(path, uniqueDepth, i)
			el := path[i]
			s.phi[el.feature] += w * (el.oneFraction - el.zeroFraction) * value
		}
		return
	}

	var hot, cold int32
	if s.x[node.Feature] <= node.Threshold {
		hot, cold = node.Left, node.Right
	} else {
		hot, cold = node.Right, node.Left
	}
	w := float64(node.Samples)
	hotZero := float64(s.tree.Nodes[hot].Samples) / w
	coldZero := float64(s.tree.Nodes[cold].Samples) / w
	incomingZero, incomingOne := 1.0, 1.0

	// If this feature already appears on the path, unwind the previous
	// occurrence and inherit its fractions.
	pathIndex := 0
	for ; pathIndex <= uniqueDepth; pathIndex++ {
		if path[pathIndex].feature == int(node.Feature) {
			break
		}
	}
	depth := uniqueDepth
	if pathIndex != uniqueDepth+1 {
		incomingZero = path[pathIndex].zeroFraction
		incomingOne = path[pathIndex].oneFraction
		unwindPath(path, depth, pathIndex)
		depth--
	}

	s.recurse(int(hot), childOffset, depth+1, hotZero*incomingZero, incomingOne, int(node.Feature))
	s.recurse(int(cold), childOffset, depth+1, coldZero*incomingZero, 0, int(node.Feature))
}

// ForestSHAP averages TreeSHAP over every tree of the forest — valid
// because the forest's class probability is the mean of tree outputs and
// Shapley values are linear in the model.
func ForestSHAP(f *forest.Forest, x []float64, class int, nFeatures int) Explanation {
	phi := make([]float64, nFeatures)
	var base float64
	for _, t := range f.Trees {
		e := TreeSHAP(t, x, class, nFeatures)
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
