package rca

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestRCAUniformMatrixIsOne(t *testing.T) {
	// When every antenna has the same service mix, no antenna is
	// advantaged: RCA = 1 everywhere.
	m := mat.MustFromRows([][]float64{
		{10, 20, 30},
		{1, 2, 3},
		{100, 200, 300},
	})
	r := RCA(m)
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < r.Cols(); j++ {
			if math.Abs(r.At(i, j)-1) > 1e-12 {
				t.Fatalf("RCA(%d,%d) = %v, want 1", i, j, r.At(i, j))
			}
		}
	}
}

func TestRCADetectsOverUtilization(t *testing.T) {
	// Antenna 0 spends all its traffic on service 0 while the network is
	// split evenly: service 0 is over-utilized there.
	m := mat.MustFromRows([][]float64{
		{10, 0},
		{5, 15},
	})
	r := RCA(m)
	if r.At(0, 0) <= 1 {
		t.Fatalf("over-utilized cell RCA = %v, want > 1", r.At(0, 0))
	}
	if r.At(0, 1) != 0 {
		t.Fatalf("unused service RCA = %v, want 0", r.At(0, 1))
	}
	if r.At(1, 1) <= 1 {
		t.Fatalf("antenna 1 over-uses service 1: RCA = %v", r.At(1, 1))
	}
}

func TestRCAHandlesZeroTotals(t *testing.T) {
	m := mat.MustFromRows([][]float64{
		{0, 0},
		{1, 0},
	})
	r := RCA(m)
	// Antenna 0 has no traffic; service 1 has no traffic network-wide.
	if r.At(0, 0) != 0 || r.At(0, 1) != 0 || r.At(1, 1) != 0 {
		t.Fatal("zero totals must yield RCA 0")
	}
	zero := mat.NewDense(2, 2)
	rz := RCA(zero)
	if rz.Sum() != 0 {
		t.Fatal("all-zero matrix must yield all-zero RCA")
	}
}

func TestRSCAMapping(t *testing.T) {
	rcaM := mat.MustFromRows([][]float64{{0, 1, 3}})
	s := RSCAFromRCA(rcaM)
	if s.At(0, 0) != -1 {
		t.Fatalf("RCA 0 → RSCA %v, want -1", s.At(0, 0))
	}
	if s.At(0, 1) != 0 {
		t.Fatalf("RCA 1 → RSCA %v, want 0", s.At(0, 1))
	}
	if math.Abs(s.At(0, 2)-0.5) > 1e-12 {
		t.Fatalf("RCA 3 → RSCA %v, want 0.5", s.At(0, 2))
	}
}

func TestRSCABoundsOnRandomTraffic(t *testing.T) {
	m := mat.NewDense(40, 20)
	seed := uint64(12345)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			m.Set(i, j, float64(seed>>40))
		}
	}
	if err := Validate(RSCA(m)); err != nil {
		t.Fatal(err)
	}
}

func TestRSCASymmetryProperty(t *testing.T) {
	// The defining property of RSCA: RCA = x and RCA = 1/x map to ±s.
	f := func(raw uint16) bool {
		x := float64(raw)/1000 + 0.001
		a := (x - 1) / (x + 1)
		b := (1/x - 1) / (1/x + 1)
		return math.Abs(a+b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRSCAUnderOverBalance(t *testing.T) {
	// Build a matrix with one heavily skewed antenna: its RSCA must show
	// both over-utilization (>0) and under-utilization (<0), bounded.
	m := mat.MustFromRows([][]float64{
		{100, 1, 1},
		{10, 10, 10},
		{10, 10, 10},
	})
	s := RSCA(m)
	if s.At(0, 0) <= 0 {
		t.Fatal("skewed antenna should over-use service 0")
	}
	if s.At(0, 1) >= 0 {
		t.Fatal("skewed antenna should under-use service 1")
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestOutdoorReference(t *testing.T) {
	indoor := mat.MustFromRows([][]float64{
		{30, 10},
		{30, 30},
	})
	ref, err := NewOutdoorReference(indoor)
	if err != nil {
		t.Fatal(err)
	}
	// Indoor shares: service 0 = 60/100, service 1 = 40/100.
	if math.Abs(ref.ServiceShare[0]-0.6) > 1e-12 || math.Abs(ref.ServiceShare[1]-0.4) > 1e-12 {
		t.Fatalf("shares = %v", ref.ServiceShare)
	}

	outdoor := mat.MustFromRows([][]float64{
		{60, 40}, // exactly the indoor composition → RCA 1
		{0, 100}, // all service 1 → RCA 0 / 2.5
	})
	r, err := ref.RCAOutdoor(outdoor)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.At(0, 0)-1) > 1e-12 || math.Abs(r.At(0, 1)-1) > 1e-12 {
		t.Fatalf("indoor-like outdoor antenna RCA = %v,%v", r.At(0, 0), r.At(0, 1))
	}
	if r.At(1, 0) != 0 || math.Abs(r.At(1, 1)-2.5) > 1e-12 {
		t.Fatalf("skewed outdoor antenna RCA = %v,%v", r.At(1, 0), r.At(1, 1))
	}

	s, err := ref.RSCAOutdoor(outdoor)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestOutdoorReferenceErrors(t *testing.T) {
	if _, err := NewOutdoorReference(mat.NewDense(2, 2)); err == nil {
		t.Fatal("zero indoor matrix should error")
	}
	ref, err := NewOutdoorReference(mat.MustFromRows([][]float64{{1, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RCAOutdoor(mat.NewDense(1, 3)); err == nil {
		t.Fatal("service-count mismatch should error")
	}
}

func TestNormalizeByGlobalMax(t *testing.T) {
	m := mat.MustFromRows([][]float64{{1, 2}, {4, 0}})
	n := NormalizeByGlobalMax(m)
	if n.At(1, 0) != 1 || n.At(0, 0) != 0.25 {
		t.Fatalf("normalized = %v %v", n.At(1, 0), n.At(0, 0))
	}
	if m.At(1, 0) != 4 {
		t.Fatal("input must not be mutated")
	}
	z := NormalizeByGlobalMax(mat.NewDense(2, 2))
	if z.Sum() != 0 {
		t.Fatal("all-zero matrix unchanged")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	bad := mat.MustFromRows([][]float64{{0, 1.5}})
	if err := Validate(bad); err == nil {
		t.Fatal("out-of-range value should fail validation")
	}
	nan := mat.MustFromRows([][]float64{{math.NaN()}})
	if err := Validate(nan); err == nil {
		t.Fatal("NaN should fail validation")
	}
}

// Property: for any non-negative traffic matrix, RSCA is within [-1, 1]
// (the paper's Section 4.1 claim motivating the transform).
func TestRSCABoundedProperty(t *testing.T) {
	f := func(cells [12]uint8) bool {
		m := mat.NewDense(3, 4)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				m.Set(i, j, float64(cells[i*4+j]))
			}
		}
		return Validate(RSCA(m)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RCA is scale-invariant — multiplying all traffic by a constant
// leaves the index unchanged.
func TestRCAScaleInvarianceProperty(t *testing.T) {
	f := func(cells [6]uint8, scaleRaw uint8) bool {
		scale := float64(scaleRaw%100) + 1
		a := mat.NewDense(2, 3)
		b := mat.NewDense(2, 3)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				v := float64(cells[i*3+j]) + 1
				a.Set(i, j, v)
				b.Set(i, j, v*scale)
			}
		}
		ra, rb := RCA(a), RCA(b)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if math.Abs(ra.At(i, j)-rb.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// eq5Fixture draws a seeded indoor reference and outdoor matrix with
// log-normal cell volumes and a few idle cells, the shape of the Section
// 5.3 inputs.
func eq5Fixture(t *testing.T, seed uint64, outdoorRows, services int) (*mat.Dense, *mat.Dense) {
	t.Helper()
	r := rng.New(seed)
	draw := func(rows int) *mat.Dense {
		m := mat.NewDense(rows, services)
		for i := 0; i < rows; i++ {
			for j := 0; j < services; j++ {
				if r.Intn(10) > 0 {
					m.Set(i, j, r.LogNormal(3, 2))
				}
			}
		}
		return m
	}
	return draw(40), draw(outdoorRows)
}

// eq5 returns Eq. 5 and its RSCA composition for outdoor against the
// reference built from indoor.
func eq5(t *testing.T, indoor, outdoor *mat.Dense) (rcaM, rscaM *mat.Dense) {
	t.Helper()
	ref, err := NewOutdoorReference(indoor)
	if err != nil {
		t.Fatal(err)
	}
	if rcaM, err = ref.RCAOutdoor(outdoor); err != nil {
		t.Fatal(err)
	}
	if rscaM, err = ref.RSCAOutdoor(outdoor); err != nil {
		t.Fatal(err)
	}
	return rcaM, rscaM
}

// eq5Close compares one cell of two Eq. 5 results to within 1e-12:
// relative for RCA, absolute for RSCA, which lies in [-1, 1] and cancels
// near 0.
func eq5Close(rcaA, rcaB, rscaA, rscaB float64) bool {
	return math.Abs(rcaA-rcaB) <= 1e-12*math.Max(math.Abs(rcaA), math.Abs(rcaB)) &&
		math.Abs(rscaA-rscaB) <= 1e-12
}

// Metamorphic: Eq. 5 normalizes each outdoor row by its own total, so
// scaling one antenna's traffic leaves its RCA and RSCA unchanged — bit for
// bit when the factor is a power of two (exact in binary floating point),
// and to rounding for any positive factor. Other rows must not move.
func TestEq5RowScaleInvariance(t *testing.T) {
	const services = 12
	indoor, outdoor := eq5Fixture(t, 5, 30, services)
	baseRCA, baseRSCA := eq5(t, indoor, outdoor)
	r := rng.New(6)
	for trial := 0; trial < 200; trial++ {
		row := r.Intn(outdoor.Rows())
		exact := trial%2 == 0
		c := math.Ldexp(1, r.Intn(41)-20)
		if !exact {
			c = math.Exp(r.NormalScaled(0, 5))
		}
		scaled := outdoor.Clone()
		for j, v := range scaled.Row(row) {
			scaled.Set(row, j, v*c)
		}
		gotRCA, gotRSCA := eq5(t, indoor, scaled)
		for i := 0; i < outdoor.Rows(); i++ {
			for j := 0; j < services; j++ {
				a, b := baseRCA.At(i, j), gotRCA.At(i, j)
				sa, sb := baseRSCA.At(i, j), gotRSCA.At(i, j)
				if math.Float64bits(a) == math.Float64bits(b) && math.Float64bits(sa) == math.Float64bits(sb) {
					continue
				}
				if exact || i != row || !eq5Close(a, b, sa, sb) {
					t.Fatalf("trial %d: scaling row %d by %g moved cell [%d][%d]: RCA %v -> %v, RSCA %v -> %v",
						trial, row, c, i, j, a, b, sa, sb)
				}
			}
		}
	}
}

// Metamorphic: relabeling the services — one column permutation applied
// to both the indoor reference and the outdoor matrix — permutes the Eq. 5
// output columns the same way.
func TestEq5ServicePermutationEquivariance(t *testing.T) {
	const services = 12
	r := rng.New(8)
	for trial := 0; trial < 50; trial++ {
		indoor, outdoor := eq5Fixture(t, uint64(100+trial), 30, services)
		perm := r.Perm(services)
		permute := func(m *mat.Dense) *mat.Dense {
			out := mat.NewDense(m.Rows(), services)
			for i := 0; i < m.Rows(); i++ {
				for j := 0; j < services; j++ {
					out.Set(i, j, m.At(i, perm[j]))
				}
			}
			return out
		}
		baseRCA, baseRSCA := eq5(t, indoor, outdoor)
		gotRCA, gotRSCA := eq5(t, permute(indoor), permute(outdoor))
		for i := 0; i < outdoor.Rows(); i++ {
			for j := 0; j < services; j++ {
				if !eq5Close(gotRCA.At(i, j), baseRCA.At(i, perm[j]), gotRSCA.At(i, j), baseRSCA.At(i, perm[j])) {
					t.Fatalf("trial %d: permuted column %d of row %d is RCA %v / RSCA %v, want %v / %v",
						trial, j, i, gotRCA.At(i, j), gotRSCA.At(i, j), baseRCA.At(i, perm[j]), baseRSCA.At(i, perm[j]))
				}
			}
		}
	}
}

func BenchmarkRSCA500x73(b *testing.B) {
	m := mat.NewDense(500, 73)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			m.Set(i, j, float64((i*73+j)%991)+1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RSCA(m)
	}
}
