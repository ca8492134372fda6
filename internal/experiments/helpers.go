package experiments

import (
	"repro/internal/analysis"
	"repro/internal/mat"
)

// backgroundSample picks n deterministic RSCA rows as the KernelSHAP
// background distribution.
func backgroundSample(res *analysis.Result, n int) *mat.Dense {
	rows := res.RSCA.Rows()
	if n > rows {
		n = rows
	}
	bg := mat.NewDense(n, res.RSCA.Cols())
	for i := 0; i < n; i++ {
		copy(bg.Row(i), res.RSCA.Row(i*rows/n))
	}
	return bg
}
