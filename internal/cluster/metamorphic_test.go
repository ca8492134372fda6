package cluster

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rca"
	"repro/internal/rng"
	"repro/internal/synth"
)

// synthRSCA is the RSCA matrix of a seeded synth indoor population at
// scale 0.05 (about 240 antennas × 73 services), the input the pipeline's
// Ward stage clusters.
func synthRSCA(seed uint64) *mat.Dense {
	ds := synth.Generate(synth.Config{Seed: seed, Scale: 0.05, OutdoorCount: 1})
	return rca.RSCA(ds.Traffic)
}

// onGrid rounds every cell to a multiple of 2^-12. RSCA lies in [-1, 1], so
// each squared difference is a multiple of 2^-24 below 4 and a row's sum of
// 73 of them stays below 2^9: every partial sum of a squared distance is
// exact, whatever the order of the columns.
func onGrid(x *mat.Dense) *mat.Dense {
	out := x.Clone()
	for i := 0; i < out.Rows(); i++ {
		for j, v := range out.Row(i) {
			out.Set(i, j, math.Round(math.Ldexp(v, 12))/4096)
		}
	}
	return out
}

// sameUpToRelabel reports whether a and b partition the same items, i.e.
// a bijection maps every a[i] to b[i].
func sameUpToRelabel(a, b []int) bool {
	fwd, back := map[int]int{}, map[int]int{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := back[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]], back[b[i]] = b[i], a[i]
	}
	return true
}

// Metamorphic: reordering the antennas — a row permutation of the RSCA
// matrix — reorders the Ward labels with it and changes no partition,
// for every cut from 2 to 12 clusters.
func TestWardAntennaPermutationInvariance(t *testing.T) {
	for _, c := range []struct {
		name string
		x    *mat.Dense
	}{
		{"synth seed 3", synthRSCA(3)},
		{"synth seed 4", synthRSCA(4)},
		{"synth seed 5 on grid", onGrid(synthRSCA(5))},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := Ward(c.x)
			r := rng.New(9)
			for trial := 0; trial < 5; trial++ {
				perm := r.Perm(c.x.Rows())
				y := mat.NewDense(c.x.Rows(), c.x.Cols())
				for i, src := range perm {
					copy(y.Row(i), c.x.Row(src))
				}
				got := Ward(y)
				for k := 2; k <= 12; k++ {
					want, err := base.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					labels, err := got.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					moved := make([]int, len(perm))
					for i, src := range perm {
						moved[i] = want[src]
					}
					if !sameUpToRelabel(moved, labels) {
						t.Fatalf("trial %d: k=%d partition changed under an antenna permutation", trial, k)
					}
				}
			}
		})
	}
}

// Metamorphic: relabeling the services — a column permutation of the RSCA
// matrix — leaves every Ward merge height unchanged. With exact distances
// (cells on a dyadic grid) the heights match bit for bit. On raw RSCA the
// squared distances sum the same terms in another order, so each height may
// move by a few ulps; they must stay within 1e-13 relative and every cut
// from 2 to 12 must keep its partition.
func TestWardServicePermutationInvariance(t *testing.T) {
	for _, c := range []struct {
		name  string
		x     *mat.Dense
		exact bool
	}{
		{"synth seed 3 on grid", onGrid(synthRSCA(3)), true},
		{"synth seed 4 on grid", onGrid(synthRSCA(4)), true},
		{"synth seed 5", synthRSCA(5), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := Ward(c.x)
			r := rng.New(10)
			for trial := 0; trial < 5; trial++ {
				perm := r.Perm(c.x.Cols())
				y := mat.NewDense(c.x.Rows(), c.x.Cols())
				for i := 0; i < c.x.Rows(); i++ {
					for j, src := range perm {
						y.Set(i, j, c.x.At(i, src))
					}
				}
				got := Ward(y)
				for s, m := range got.Merges {
					want := base.Merges[s].Height
					if c.exact && math.Float64bits(m.Height) != math.Float64bits(want) {
						t.Fatalf("trial %d: merge %d height %v, unpermuted %v", trial, s, m.Height, want)
					}
					if math.Abs(m.Height-want) > 1e-13*want {
						t.Fatalf("trial %d: merge %d height %v, unpermuted %v", trial, s, m.Height, want)
					}
				}
				for k := 2; k <= 12; k++ {
					want, err := base.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					labels, err := got.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameUpToRelabel(want, labels) {
						t.Fatalf("trial %d: k=%d partition changed under a service permutation", trial, k)
					}
				}
			}
		})
	}
}
