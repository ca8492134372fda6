package forest

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/mat"
	"repro/internal/pipe"
)

// MaxBins is the histogram resolution of the binned split search: each
// feature column is discretized into at most 256 bins so a bin code fits
// one byte. Columns with at most MaxBins distinct values keep every value
// in its own bin, which makes the histogram search exact (see FeatureBins).
const MaxBins = 256

// FeatureBins describes the discretization of one feature column.
type FeatureBins struct {
	// Lo and Hi hold the smallest and largest raw value mapped into each
	// bin; bins are ordered, every bin contains at least one training
	// value, and Hi[b] < Lo[b+1]. Split thresholds between bins a < b are
	// the midpoint (Hi[a]+Lo[b])/2.
	Lo, Hi []float64
	// Exact marks a column with at most MaxBins distinct values. There
	// every distinct value owns a bin with Lo == Hi, so candidate split
	// thresholds are exactly the adjacent-value midpoints the sort-based
	// search proposes and the grown tree is bit-identical to it.
	Exact bool
}

// Binning is the per-forest histogram discretization of a feature matrix:
// uint8 bin codes stored column-major (one contiguous slice per feature)
// plus the per-feature bin metadata needed to turn a bin boundary back
// into a raw-value threshold. It is computed once per forest and shared
// read-only by every tree.
type Binning struct {
	codes *mat.BinMatrix
	feats []FeatureBins
}

// BinFeatures discretizes every column of x. Equal inputs produce equal
// binnings; no randomness is involved.
func BinFeatures(x *mat.Dense) *Binning {
	b, _ := BinFeaturesContext(context.Background(), x)
	return b
}

// BinFeaturesContext is BinFeatures with cooperative cancellation: columns
// are binned in parallel on the pool carried by ctx, each column writing a
// disjoint slice of the column-major code matrix.
func BinFeaturesContext(ctx context.Context, x *mat.Dense) (*Binning, error) {
	return binFeatures(ctx, x, nil)
}

// binFeatures is BinFeaturesContext seeded with the bin codes of an
// earlier binning: when seed has x's shape, each column's sort starts from
// the row order seed's codes give (see seededOrder). The binning is the
// one BinFeaturesContext returns, whatever the seed.
func binFeatures(ctx context.Context, x *mat.Dense, seed *mat.BinMatrix) (*Binning, error) {
	if seed != nil && (seed.Rows() != x.Rows() || seed.Cols() != x.Cols()) {
		seed = nil
	}
	b := &Binning{
		codes: mat.NewBinMatrix(x.Rows(), x.Cols()),
		feats: make([]FeatureBins, x.Cols()),
	}
	err := pipe.FromContext(ctx).ForEach(ctx, x.Cols(), func(j int) {
		var was []uint8
		if seed != nil {
			was = seed.Col(j)
		}
		b.feats[j] = binColumn(x, j, was, b.codes.Col(j))
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Codes returns the column-major bin-code matrix.
func (b *Binning) Codes() *mat.BinMatrix { return b.codes }

// Feature returns the bin metadata of column j.
func (b *Binning) Feature(j int) FeatureBins { return b.feats[j] }

// NumBins returns the bin count of column j.
func (b *Binning) NumBins(j int) int { return len(b.feats[j].Lo) }

// splitThreshold returns the raw-value threshold that routes bins ≤ a left
// and bins ≥ b right. For exact columns this is the same adjacent-value
// midpoint the sort-based search computes, bit for bit.
func (b *Binning) splitThreshold(f, a, bb int) float64 {
	fb := &b.feats[f]
	return (fb.Hi[a] + fb.Lo[bb]) / 2
}

// valRow is one entry of a sorted column: a value and its row.
type valRow struct {
	v   float64
	row int32
}

// seedShifts bounds a seeded sort's insertion work, in shifts per row.
// Rows whose quantile bin holds a handful of rows cost about one shift
// each; a seed from an unrelated matrix costs O(n²) and gives up here.
const seedShifts = 8

// seededOrder fills ps with the rows of column j of x sorted by value,
// starting from the order of their codes in was, the column's codes in an
// earlier binning: a counting sort by old code, then an insertion sort by
// value. It reports false, with ps some permutation of the rows, once the
// insertion sort has shifted more than seedShifts entries per row.
func seededOrder(x *mat.Dense, j int, was []uint8, ps []valRow) bool {
	var start [MaxBins + 1]int
	for _, c := range was {
		start[int(c)+1]++
	}
	for b := 1; b <= MaxBins; b++ {
		start[b] += start[b-1]
	}
	for i, c := range was {
		ps[start[c]] = valRow{x.At(i, j), int32(i)}
		start[c]++
	}
	budget := seedShifts * len(ps)
	for k := 1; k < len(ps); k++ {
		p := ps[k]
		m := k
		for ; m > 0 && cmp.Less(p.v, ps[m-1].v); m-- {
			ps[m] = ps[m-1]
		}
		ps[m] = p
		if budget -= k - m; budget < 0 {
			return false
		}
	}
	return true
}

// binColumn discretizes column j of x, writing one code per row into
// codes. Bins are delimited by "cut" values — the smallest raw value of
// each bin after the first. With ≤ MaxBins distinct values every distinct
// value becomes a cut (exact mode); above that, cuts are drawn at equal-
// frequency quantiles of the sorted column, never splitting a run of
// equal values across bins. was, when not nil, holds the column's codes
// in an earlier binning and seeds the sort; a seed too far from the new
// order falls back to the full sort.
func binColumn(x *mat.Dense, j int, was []uint8, codes []uint8) FeatureBins {
	n := x.Rows()
	ps := make([]valRow, n)
	if was == nil || !seededOrder(x, j, was, ps) {
		for i := range ps {
			ps[i] = valRow{x.At(i, j), int32(i)}
		}
		slices.SortFunc(ps, func(a, b valRow) int { return cmp.Compare(a.v, b.v) })
	}

	distinct := 1
	for i := 1; i < n; i++ {
		if ps[i].v > ps[i-1].v {
			distinct++
		}
	}
	var cuts []float64
	if distinct <= MaxBins {
		cuts = make([]float64, 0, distinct-1)
		for i := 1; i < n; i++ {
			if ps[i].v > ps[i-1].v {
				cuts = append(cuts, ps[i].v)
			}
		}
	} else {
		cuts = make([]float64, 0, MaxBins-1)
		prev := ps[0].v
		for k := 1; k < MaxBins; k++ {
			v := ps[k*n/MaxBins].v
			if v > prev {
				cuts = append(cuts, v)
				prev = v
			}
		}
	}

	nb := len(cuts) + 1
	fb := FeatureBins{
		Lo:    make([]float64, nb),
		Hi:    make([]float64, nb),
		Exact: distinct <= MaxBins,
	}
	// Per-bin raw-value ranges and every row's code from one pass over the
	// sorted column: the bin of v is the number of cuts ≤ v. Every cut
	// value is present in the data, so bins advance one at a time and each
	// bin sees at least one value.
	b := 0
	fb.Lo[0] = ps[0].v
	for _, p := range ps {
		for b < len(cuts) && p.v >= cuts[b] {
			b++
			fb.Lo[b] = p.v
		}
		fb.Hi[b] = p.v
		codes[p.row] = uint8(b)
	}
	return fb
}
