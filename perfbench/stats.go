package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile-eligibility rule: a pXX is printed only when
// at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks, the same estimator as Python's
// statistics.quantiles(method="inclusive"). xs need not be sorted; it is
// not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// eligible reports whether the pct-th percentile of n samples has at least
// minBeyond samples beyond it.
func eligible(n int, pct float64) bool {
	return float64(n)*(100-pct)/100 >= minBeyond-1e-9
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99, 98, 97, 95, 90, 80, 75, 50}

// tailPct returns the highest percentile in tailLevels that n samples
// support, or 0 when even the median is not eligible.
func tailPct(n int) float64 {
	for _, p := range tailLevels {
		if eligible(n, p) {
			return p
		}
	}
	return 0
}

// timing is one latency population. Failed or refused operations count as
// samples beyond every limit (+Inf), never as missing data, so a failure can
// only push a percentile up.
type timing struct {
	ms []float64
}

func (t *timing) add(ms float64) { t.ms = append(t.ms, ms) }
func (t *timing) miss()          { t.ms = append(t.ms, math.Inf(1)) }
func (t *timing) n() int         { return len(t.ms) }

// pct returns the pct-th percentile, and false when the population is too
// small for it: a tail (above the median) needs minBeyond samples beyond
// it, a median one sample. Medians of small populations — set-up runs,
// refreshes — print with their sample count.
func (t *timing) pct(p float64) (float64, bool) {
	if len(t.ms) == 0 || (p > 50 && !eligible(len(t.ms), p)) {
		return math.NaN(), false
	}
	return quantile(t.ms, p/100), true
}

// calmMedian splits a population kept in time order into k contiguous
// segments and returns the lower quartile of the segment medians. CPU
// that co-tenants steal from the container comes in bursts of seconds: it
// lifts the median of the segments it lands on and leaves the others, so
// the calmer segments estimate the median the tier gives on CPUs of its
// own. With fewer than k samples it is the plain median.
func (t *timing) calmMedian(k int) float64 {
	n := len(t.ms)
	if n < k {
		return quantile(t.ms, 0.5)
	}
	meds := make([]float64, k)
	for s := range meds {
		meds[s] = quantile(t.ms[s*n/k:(s+1)*n/k], 0.5)
	}
	return quantile(meds, 0.25)
}

// metric is one printed result row.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind the value (0 for a single reading).
	N int
}

// report collects the rows a run prints, in insertion order.
type report struct {
	rows []metric
	seen map[string]bool
}

// set records a row; a name may be recorded once.
func (r *report) set(name string, value float64, unit string, n int) {
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[name] {
		return
	}
	r.seen[name] = true
	r.rows = append(r.rows, metric{Name: name, Value: value, Unit: unit, N: n})
}

// setPct records the p50 and the tail percentile named by tail of t under
// prefix (e.g. prefix "classify" gives classify_p50_ms, classify_p99_ms).
// A percentile the sample count does not support is not recorded, and an
// error names it.
func (r *report) setPct(prefix string, t *timing, pcts ...float64) error {
	for _, p := range pcts {
		v, ok := t.pct(p)
		name := fmt.Sprintf("%s_p%s_ms", prefix, pctLabel(p))
		if !ok {
			return fmt.Errorf("%s: %d samples cannot support p%s", name, t.n(), pctLabel(p))
		}
		r.set(name, v, "ms", t.n())
	}
	return nil
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.rows {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func pctLabel(p float64) string {
	return fmt.Sprintf("%g", p)
}
