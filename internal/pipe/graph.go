package pipe

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// StageFunc is the body of one pipeline stage. The context is cancelled
// as soon as any stage fails or the caller cancels the run.
type StageFunc func(ctx context.Context) error

type stage struct {
	name string
	deps []string
	fn   StageFunc
}

// Graph is a deterministic DAG of named stages. Build it with Add and
// execute it with Run; stages whose dependencies have all completed run
// concurrently.
type Graph struct {
	stages []stage
	index  map[string]int
}

// NewGraph returns an empty stage graph.
func NewGraph() *Graph {
	return &Graph{index: map[string]int{}}
}

// Add registers a stage. Dependencies are stage names that must complete
// before fn runs. Registration order is preserved for deterministic
// validation errors; execution order is governed solely by dependencies.
func (g *Graph) Add(name string, deps []string, fn StageFunc) {
	if _, dup := g.index[name]; dup {
		//lint:allow nopanic duplicate registration is a wiring bug, caught at startup
		panic(fmt.Sprintf("pipe: duplicate stage %q", name))
	}
	g.index[name] = len(g.stages)
	g.stages = append(g.stages, stage{name: name, deps: append([]string(nil), deps...), fn: fn})
}

// validate checks that every dependency exists and the graph is acyclic.
func (g *Graph) validate() error {
	for _, s := range g.stages {
		for _, d := range s.deps {
			if _, ok := g.index[d]; !ok {
				return fmt.Errorf("pipe: stage %q depends on unknown stage %q", s.name, d)
			}
			if d == s.name {
				return fmt.Errorf("pipe: stage %q depends on itself", s.name)
			}
		}
	}
	// Kahn's algorithm over the dependency counts.
	indegree := make([]int, len(g.stages))
	dependents := make([][]int, len(g.stages))
	for i, s := range g.stages {
		indegree[i] = len(s.deps)
		for _, d := range s.deps {
			j := g.index[d]
			dependents[j] = append(dependents[j], i)
		}
	}
	ready := make([]int, 0, len(g.stages))
	for i, deg := range indegree {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	seen := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, j := range dependents[i] {
			indegree[j]--
			if indegree[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if seen != len(g.stages) {
		var cyclic []string
		for i, deg := range indegree {
			if deg > 0 {
				cyclic = append(cyclic, g.stages[i].name)
			}
		}
		sort.Strings(cyclic)
		return fmt.Errorf("pipe: dependency cycle involving stages %v", cyclic)
	}
	return nil
}

// StageError wraps a stage failure with the stage's name.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("stage %q: %v", e.Stage, e.Err) }

// Unwrap exposes the underlying stage error.
func (e *StageError) Unwrap() error { return e.Err }

// Run executes the graph: every stage starts as soon as its dependencies
// complete, on its own goroutine (inner data parallelism goes through the
// shared Pool). The first stage error — or a cancelled ctx — stops new
// stages from starting, cancels the context passed to running stages, and
// is returned after every in-flight stage has exited, so Run never leaks
// goroutines. Per-stage wall time, queueing delay, allocation delta and
// goroutine counts are recorded into tr when it is non-nil. A StageHook
// carried by ctx (see WithStageHook) is consulted before each stage body;
// a hook error fails the stage without running it.
func (g *Graph) Run(ctx context.Context, tr *obs.Trace) error {
	if err := g.validate(); err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hook := stageHookFrom(ctx)

	n := len(g.stages)
	indegree := make([]int, n)
	dependents := make([][]int, n)
	for i, s := range g.stages {
		indegree[i] = len(s.deps)
		for _, d := range s.deps {
			j := g.index[d]
			dependents[j] = append(dependents[j], i)
		}
	}

	start := time.Now()
	if tr != nil {
		start = tr.Start()
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		stopped  bool
	)
	var launch func(i int)
	finish := func(i int, err error) {
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = &StageError{Stage: g.stages[i].name, Err: err}
			}
			stopped = true
			cancel()
		}
		var ready []int
		if !stopped {
			for _, j := range dependents[i] {
				indegree[j]--
				if indegree[j] == 0 {
					ready = append(ready, j)
				}
			}
		}
		mu.Unlock()
		for _, j := range ready {
			launch(j)
		}
	}
	launch = func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.stages[i]
			finish(i, runStage(runCtx, tr, hook, s, time.Since(start)))
		}()
	}

	var roots []int
	for i, deg := range indegree {
		if deg == 0 {
			roots = append(roots, i)
		}
	}
	for _, i := range roots {
		launch(i)
	}
	wg.Wait()
	// A cancelled caller context outranks the per-stage errors it induced.
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// RunStage runs fn as one named stage outside any graph — work that
// follows a graph's run without joining it — and records it into tr
// (when non-nil) exactly as Graph.Run records a graph stage, its queueing
// delay measured from tr's start. The stage hook carried by ctx applies,
// and a failure comes back as a *StageError.
func RunStage(ctx context.Context, tr *obs.Trace, name string, deps []string, fn StageFunc) error {
	var queued time.Duration
	if tr != nil {
		queued = time.Since(tr.Start())
	}
	if err := runStage(ctx, tr, stageHookFrom(ctx), stage{name: name, deps: deps, fn: fn}, queued); err != nil {
		return &StageError{Stage: name, Err: err}
	}
	return nil
}

// runStage runs one stage body — unless ctx is already done or the hook
// fails it — and records its wall time, queueing delay, allocation delta,
// goroutine count and error into tr when tr is non-nil.
func runStage(ctx context.Context, tr *obs.Trace, hook StageHook, s stage, queued time.Duration) error {
	allocBefore := obs.MemAllocated()
	stageStart := time.Now()
	var err error
	switch {
	case ctx.Err() != nil:
		err = ctx.Err()
	case hook != nil:
		if err = hook(s.name); err == nil {
			err = s.fn(ctx)
		}
	default:
		err = s.fn(ctx)
	}
	if tr != nil {
		st := obs.StageTrace{
			Name:       s.name,
			Deps:       s.deps,
			Wall:       time.Since(stageStart),
			Waited:     queued,
			Goroutines: runtime.NumGoroutine(),
		}
		if alloc := obs.MemAllocated(); alloc > allocBefore {
			st.AllocBytes = alloc - allocBefore
		}
		if err != nil {
			st.Err = err.Error()
		}
		tr.Record(st)
	}
	obs.Add("pipe.stages", 1)
	return err
}
