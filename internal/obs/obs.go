// Package obs provides the lightweight observability layer of the staged
// pipeline engine: per-stage wall time, allocation and goroutine-count
// traces recorded by the internal/pipe scheduler and surfaced on the
// public analysis Result, plus named counters and latency histograms held
// in registries: Default for the process, one per serving instance.
// Everything is safe for concurrent use.
package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageTrace is one stage's execution record.
type StageTrace struct {
	// Name is the stage name as registered in the graph.
	Name string
	// Deps lists the stages this one waited on.
	Deps []string
	// Wall is the stage's wall-clock duration.
	Wall time.Duration
	// Waited is how long the stage sat ready-but-queued behind its
	// dependencies, measured from graph start for root stages.
	Waited time.Duration
	// AllocBytes is the process heap-allocation delta across the stage.
	// Concurrent stages allocate into the same process counters, so this
	// is an attribution estimate, not an exact per-stage figure.
	AllocBytes uint64
	// Goroutines is the process goroutine count sampled at stage end.
	Goroutines int
	// Err is the stage error message, empty on success.
	Err string
}

// Trace accumulates stage records for one pipeline run.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	stages []StageTrace
}

// NewTrace starts an empty trace clocked from now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start
}

// Record appends one stage record.
func (t *Trace) Record(st StageTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stages = append(t.stages, st)
}

// Stages returns a copy of the recorded stages in completion order.
func (t *Trace) Stages() []StageTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageTrace, len(t.stages))
	copy(out, t.stages)
	return out
}

// Total returns the wall time from trace start to the last stage
// completion (zero when nothing was recorded).
func (t *Trace) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.stages {
		if end := s.Waited + s.Wall; end > total {
			total = end
		}
	}
	return total
}

// String renders the trace as an aligned table, one row per stage in
// completion order, with the run total on the last line.
func (t *Trace) String() string {
	stages := t.Stages()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %6s  %s\n",
		"stage", "wall", "queued", "alloc", "gor", "deps")
	for _, s := range stages {
		status := strings.Join(s.Deps, ",")
		if s.Err != "" {
			status = "ERROR: " + s.Err
		}
		fmt.Fprintf(&b, "%-12s %10s %10s %10s %6d  %s\n",
			s.Name,
			s.Wall.Round(time.Microsecond),
			s.Waited.Round(time.Microsecond),
			formatBytes(s.AllocBytes),
			s.Goroutines,
			status)
	}
	fmt.Fprintf(&b, "%-12s %10s\n", "TOTAL", t.Total().Round(time.Microsecond))
	return b.String()
}

func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// MemAllocated samples the process cumulative heap allocation. Stage
// deltas of this value feed StageTrace.AllocBytes.
func MemAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Registry owns one set of named counters and histograms. Default holds
// the process-wide series; each serve.Server and shard.Router builds its
// own with NewRegistry, so its /metrics and /v1/stats count only its own
// events.
type Registry struct {
	counters sync.Map // string -> *int64

	histMu sync.Mutex
	hists  map[string]*Histogram
}

// Default is the process-wide registry behind the package-level functions,
// seeded with every catalog entry not marked Instance.
var Default = newRegistry(false)

// NewRegistry returns an instance registry seeded at zero with every
// catalog entry marked Instance.
func NewRegistry() *Registry { return newRegistry(true) }

func newRegistry(instance bool) *Registry {
	r := &Registry{hists: map[string]*Histogram{}}
	for _, d := range Catalog {
		if d.Instance != instance {
			continue
		}
		switch d.Kind {
		case KindCounter:
			r.Add(d.Name, 0)
		case KindHistogram:
			r.GetHistogram(d.Name, d.Buckets)
		}
	}
	return r
}

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	v, ok := r.counters.Load(name)
	if !ok {
		v, _ = r.counters.LoadOrStore(name, new(int64))
	}
	atomic.AddInt64(v.(*int64), delta)
}

// Counter reads the named counter (0 when it was never added to).
func (r *Registry) Counter(name string) int64 {
	v, ok := r.counters.Load(name)
	if !ok {
		return 0
	}
	return atomic.LoadInt64(v.(*int64))
}

// Counters snapshots every counter.
func (r *Registry) Counters() map[string]int64 {
	out := map[string]int64{}
	r.counters.Range(func(k, v interface{}) bool {
		out[k.(string)] = atomic.LoadInt64(v.(*int64))
		return true
	})
	return out
}

// Add increments the named process-wide counter by delta.
func Add(name string, delta int64) { Default.Add(name, delta) }

// Counters snapshots every process-wide counter.
func Counters() map[string]int64 { return Default.Counters() }
