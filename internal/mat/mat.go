// Package mat provides the dense matrix and small linear-algebra routines
// used by the clustering, random-forest and SHAP implementations: row-major
// dense matrices, Euclidean distance kernels, a condensed pairwise-distance
// representation, and a pivoted Gaussian solver for the KernelSHAP weighted
// least-squares fit.
package mat

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/pipe"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a zeroed rows × cols matrix. It panics on non-positive
// dimensions.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		// Dimensions always come from the shapes of existing data, never
		// from external input, so a bad value is a programming error.
		//lint:allow nopanic dimensions are compiled-in shape invariants, not input
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a Dense matrix copying the given row slices, which must
// all share the same non-zero length. Empty or ragged input — the shapes
// unvalidated external data arrives in — is reported as an error.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: FromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("mat: ragged row %d: %d != %d", i, len(r), m.cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// RowVector views x as a 1 × len(x) matrix sharing x's storage.
func RowVector(x []float64) *Dense {
	return &Dense{rows: 1, cols: len(x), data: x}
}

// MustFromRows is FromRows for compiled-in literal matrices (tests,
// fixtures): it panics on invalid input instead of returning an error.
func MustFromRows(rows [][]float64) *Dense {
	m, err := FromRows(rows)
	if err != nil {
		//lint:allow nopanic Must variant for compiled-in literals
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a mutable slice view into the matrix.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Scale multiplies every element by f in place.
func (m *Dense) Scale(f float64) {
	for i := range m.data {
		m.data[i] *= f
	}
}

// RowSums returns the sum of each row.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSums returns the sum of each column.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// MeanRows returns the column-wise mean over the given row indices (all
// rows when idx is nil). An empty idx selection returns zeros.
func (m *Dense) MeanRows(idx []int) []float64 {
	out := make([]float64, m.cols)
	if idx == nil {
		idx = make([]int, m.rows)
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return out
	}
	for _, i := range idx {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1 / float64(len(idx))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// SqDist returns the squared Euclidean distance between two equal-length
// vectors. It panics on a length mismatch.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		// Hot kernel on the N² distance path: an error return would cost
		// a branch per call pair, and mismatched rows of one matrix are
		// impossible by construction.
		//lint:allow nopanic hot-path invariant, rows of one matrix share a length
		panic("mat: SqDist length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between two vectors.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		//lint:allow nopanic hot-path invariant, rows of one matrix share a length
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Condensed stores the strictly-upper-triangular part of a symmetric n × n
// pairwise matrix in a flat slice, halving memory for the Ward clustering
// distance cache at full paper scale (N = 4,762).
type Condensed struct {
	n    int
	data []float64
}

// NewCondensed allocates a condensed n × n symmetric matrix with zero
// diagonal. It panics when n < 2.
func NewCondensed(n int) *Condensed {
	if n < 2 {
		// Callers (pipeline, clustering) validate the antenna count
		// before any Condensed matrix exists.
		//lint:allow nopanic dimension validated at the pipeline boundary
		panic("mat: Condensed needs n >= 2")
	}
	return &Condensed{n: n, data: make([]float64, n*(n-1)/2)}
}

// N returns the logical dimension.
func (c *Condensed) N() int { return c.n }

func (c *Condensed) index(i, j int) int {
	if i == j {
		//lint:allow nopanic index invariant of the condensed representation
		panic("mat: Condensed diagonal access")
	}
	if i > j {
		i, j = j, i
	}
	// Row-wise upper triangle offset.
	return i*(2*c.n-i-1)/2 + (j - i - 1)
}

// At returns element (i, j); the diagonal is implicitly zero and must not
// be addressed.
func (c *Condensed) At(i, j int) float64 { return c.data[c.index(i, j)] }

// Set assigns element (i, j) (and, implicitly, (j, i)).
func (c *Condensed) Set(i, j int, v float64) { c.data[c.index(i, j)] = v }

// UpperRow returns the stored segment d(i, i+1), …, d(i, n-1) as a slice
// view into the condensed storage — the contiguous upper-triangle row the
// selection metrics walk without paying the branchy index arithmetic of
// At. Callers must not mutate the view. i must be in [0, n-1]; the last
// row is empty.
func (c *Condensed) UpperRow(i int) []float64 {
	start := i * (2*c.n - i - 1) / 2
	return c.data[start : start+c.n-i-1]
}

// Clone returns a deep copy of the condensed matrix.
func (c *Condensed) Clone() *Condensed {
	out := &Condensed{n: c.n, data: make([]float64, len(c.data))}
	copy(out.data, c.data)
	return out
}

// Sqrt replaces every stored distance with its square root in place and
// returns the receiver — the condensed squared-distance → Euclidean
// conversion the clustering metrics consume.
func (c *Condensed) Sqrt() *Condensed {
	for i, v := range c.data {
		c.data[i] = math.Sqrt(v)
	}
	return c
}

// PairwiseSqDist computes the condensed matrix of squared Euclidean
// distances between all row pairs of m. Rows are processed in parallel on
// the shared worker pool; each row writes a disjoint slice of the
// condensed storage, so the result is deterministic.
func PairwiseSqDist(m *Dense) *Condensed {
	c, _ := PairwiseSqDistContext(context.Background(), m)
	return c
}

// PairwiseSqDistContext is PairwiseSqDist with cooperative cancellation:
// the row loop stops early and returns ctx.Err() when ctx is cancelled.
func PairwiseSqDistContext(ctx context.Context, m *Dense) (*Condensed, error) {
	c := NewCondensed(m.rows)
	if m.rows < 128 {
		for i := 0; i < m.rows; i++ {
			ri := m.Row(i)
			for j := i + 1; j < m.rows; j++ {
				c.Set(i, j, SqDist(ri, m.Row(j)))
			}
		}
		return c, ctx.Err()
	}
	err := pipe.FromContext(ctx).ForEach(ctx, m.rows, func(i int) {
		ri := m.Row(i)
		for j := i + 1; j < m.rows; j++ {
			c.Set(i, j, SqDist(ri, m.Row(j)))
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ErrSingular reports a numerically singular system in SolveLinear.
var ErrSingular = errors.New("mat: singular system")

// SolveLinear solves A·x = b for square A via Gaussian elimination with
// partial pivoting, overwriting neither input. It returns ErrSingular when
// a pivot falls below a small tolerance.
func SolveLinear(a *Dense, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: SolveLinear needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mat: SolveLinear rhs length %d != %d", len(b), n)
	}
	aug := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := aug.Row(pivot), aug.Row(col)
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
			rhs[pivot], rhs[col] = rhs[col], rhs[pivot]
		}
		inv := 1 / aug.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := aug.At(r, col) * inv
			if factor == 0 {
				continue
			}
			rr, cr := aug.Row(r), aug.Row(col)
			for k := col; k < n; k++ {
				rr[k] -= factor * cr[k]
			}
			rhs[r] -= factor * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		row := aug.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// WeightedLeastSquares solves min ||W^(1/2)(X·beta - y)||² via the normal
// equations (XᵀWX)·beta = XᵀWy. X is n × p, y and w have length n. A tiny
// ridge term stabilizes near-singular designs, which arise in KernelSHAP
// when sampled coalitions repeat.
func WeightedLeastSquares(x *Dense, y, w []float64) ([]float64, error) {
	n, p := x.rows, x.cols
	if len(y) != n || len(w) != n {
		return nil, fmt.Errorf("mat: WLS dimension mismatch n=%d len(y)=%d len(w)=%d", n, len(y), len(w))
	}
	xtwx := NewDense(p, p)
	xtwy := make([]float64, p)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		wi := w[i]
		if wi < 0 {
			return nil, fmt.Errorf("mat: WLS negative weight at %d", i)
		}
		for a := 0; a < p; a++ {
			va := wi * row[a]
			xtwy[a] += va * y[i]
			ra := xtwx.Row(a)
			for b := a; b < p; b++ {
				ra[b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle and add ridge.
	for a := 0; a < p; a++ {
		xtwx.Set(a, a, xtwx.At(a, a)+1e-9)
		for b := a + 1; b < p; b++ {
			xtwx.Set(b, a, xtwx.At(a, b))
		}
	}
	return SolveLinear(xtwx, xtwy)
}
