package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Buckets hold observation counts for values ≤ the matching upper bound;
// values above the last bound land in an implicit +Inf bucket. Counts and
// the running sum use atomics, so Observe never takes a lock on the hot
// serving path.
type Histogram struct {
	name    string
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is the +Inf overflow bucket
	sumBits uint64  // float64 bits of the observation sum, CAS-updated
	total   int64
}

// DefaultLatencyBuckets are the millisecond upper bounds used by the
// serving path: sub-millisecond cache hits up to multi-second stragglers.
var DefaultLatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// GetHistogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds select DefaultLatencyBuckets).
// Later calls ignore bounds, so concurrent callers always share one
// instance.
func (r *Registry) GetHistogram(name string, bounds []float64) *Histogram {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{name: name, bounds: b, counts: make([]int64, len(b)+1)}
	r.hists[name] = h
	return h
}

// ObserveMS records one observation (in milliseconds) into the named
// histogram with the default latency buckets.
func (r *Registry) ObserveMS(name string, ms float64) {
	r.GetHistogram(name, nil).Observe(ms)
}

// GetHistogram returns the named process-wide histogram (see
// Registry.GetHistogram).
func GetHistogram(name string, bounds []float64) *Histogram {
	return Default.GetHistogram(name, bounds)
}

// ObserveMS records one observation into the named process-wide histogram.
func ObserveMS(name string, ms float64) { Default.ObserveMS(name, ms) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.total, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough point-in-time copy of a
// histogram for rendering: cumulative bucket counts, total count and sum.
type HistogramSnapshot struct {
	Name string
	// Bounds are the bucket upper bounds; Cumulative[i] counts
	// observations ≤ Bounds[i]. Count includes the +Inf overflow.
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Bounds: h.bounds,
		Count:  atomic.LoadInt64(&h.total),
		Sum:    math.Float64frombits(atomic.LoadUint64(&h.sumBits)),
	}
	s.Cumulative = make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += atomic.LoadInt64(&h.counts[i])
		s.Cumulative[i] = run
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation within the containing bucket. Observations beyond
// the last bound report the last bound. Returns NaN when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, c := range s.Cumulative {
		if float64(c) >= rank {
			lo, loCount := 0.0, int64(0)
			if i > 0 {
				lo, loCount = s.Bounds[i-1], s.Cumulative[i-1]
			}
			in := c - loCount
			if in == 0 {
				return s.Bounds[i]
			}
			frac := (rank - float64(loCount)) / float64(in)
			return lo + frac*(s.Bounds[i]-lo)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Histograms snapshots every histogram, sorted by name.
func (r *Registry) Histograms() []HistogramSnapshot {
	r.histMu.Lock()
	all := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		all = append(all, h)
	}
	r.histMu.Unlock()
	out := make([]HistogramSnapshot, 0, len(all))
	for _, h := range all {
		out = append(out, h.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricsText renders every counter and histogram in the Prometheus text
// exposition format. Metric names are derived from registry names by
// replacing non-alphanumeric runes with underscores and prefixing "icn_".
func (r *Registry) MetricsText() string {
	var b strings.Builder
	snap := r.Counters()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metricName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, snap[n])
	}
	for _, h := range r.Histograms() {
		m := metricName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m)
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m, formatBound(bound), h.Cumulative[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&b, "%s_sum %g\n", m, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}
	return b.String()
}

// MetricsText renders the process-wide registry (see
// Registry.MetricsText).
func MetricsText() string { return Default.MetricsText() }

func metricName(name string) string {
	var b strings.Builder
	b.WriteString("icn_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
