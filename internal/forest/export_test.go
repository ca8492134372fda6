package forest

import "repro/internal/mat"

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
