package forest

import (
	"reflect"
	"unsafe"

	"repro/internal/mat"
)

// TrainExact exposes the sort-based reference forest to the external
// parity test, which needs the analysis pipeline and so cannot live in
// package forest.
var TrainExact = trainExact

// TrainWindow exposes the duplicate-index window-scan reference forest to
// the external scale-0.25 parity test.
var TrainWindow = trainWindow

// BlockRows exposes the predict block sizing to the external kernel test.
var BlockRows = blockRows

// BlockProbs runs the batch kernel over rows [lo, hi) of x and returns its
// averaged class probabilities, Classes entries per row.
func (f *Forest) BlockProbs(x *mat.Dense, lo, hi int) []float64 {
	acc := make([]float64, (hi-lo)*f.Classes)
	f.blockProbs(x, lo, hi, acc)
	return acc
}

// Bytes returns the heap bytes r holds: its exact-length slices, the bin
// code matrix and the headers that point at them.
func (r *Record) Bytes() int64 {
	n := int64(unsafe.Sizeof(*r)) + int64(unsafe.Sizeof(*r.codes)) +
		int64(r.codes.Rows()*r.codes.Cols()) + int64(cap(r.exact)+cap(r.labels)) +
		int64(cap(r.trees))*int64(unsafe.Sizeof(treeRecord{}))
	for _, t := range r.trees {
		n += int64(2*cap(t.rows)+cap(t.cands)+8*cap(t.gains)+cap(t.bins)) +
			int64(cap(t.nodes))*int64(unsafe.Sizeof(recNode{}))
	}
	return n
}

// RecordShape returns the searched nodes, candidates and improved
// candidates r holds.
func (r *Record) RecordShape() (nodes, cands, improved int) {
	for _, t := range r.trees {
		nodes += len(t.nodes)
		cands += len(t.cands)
		improved += len(t.gains)
	}
	return nodes, cands, improved
}

// SameSplits reports whether a and b record the same trainings: every
// field but the work counters, which depend on what each replayed.
func SameSplits(a, b *Record) bool {
	x, y := *a, *b
	x.scanned, x.reused, y.scanned, y.reused = 0, 0, 0, 0
	return reflect.DeepEqual(x, y)
}
