package pipe

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	p := NewPool(4)
	out := make([]int, 1000)
	if err := p.ForEach(context.Background(), len(out), func(i int) { out[i] = i + 1 }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("index %d not processed (got %d)", i, v)
		}
	}
}

func TestForEachInlineWhenSaturated(t *testing.T) {
	// Capacity 1 means no helper goroutines: everything runs on the
	// caller's goroutine and nested calls cannot deadlock.
	p := NewPool(1)
	var count int64
	err := p.ForEach(context.Background(), 8, func(i int) {
		p.ForEach(context.Background(), 8, func(j int) {
			atomic.AddInt64(&count, 1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Fatalf("nested ForEach ran %d items, want 64", count)
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := p.ForEach(ctx, 100000, func(i int) {
		if atomic.AddInt64(&ran, 1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 100000 {
		t.Fatalf("cancellation did not stop the loop (%d items ran)", n)
	}
}

func TestGraphRunsStagesInDependencyOrder(t *testing.T) {
	g := NewGraph()
	var order []string
	var mu atomic.Int64
	record := func(name string) StageFunc {
		return func(ctx context.Context) error {
			for !mu.CompareAndSwap(0, 1) {
			}
			order = append(order, name)
			mu.Store(0)
			return nil
		}
	}
	g.Add("c", []string{"b"}, record("c"))
	g.Add("a", nil, record("a"))
	g.Add("b", []string{"a"}, record("b"))
	g.Add("d", []string{"a"}, record("d"))
	if err := g.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 4 {
		t.Fatalf("ran %d stages: %v", len(order), order)
	}
	if pos["a"] > pos["b"] || pos["b"] > pos["c"] || pos["a"] > pos["d"] {
		t.Fatalf("dependency order violated: %v", order)
	}
}

func TestGraphIndependentStagesOverlap(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs 2 CPUs")
	}
	g := NewGraph()
	gate := make(chan struct{})
	// Two independent stages that each wait for the other to have
	// started: only concurrent execution lets the run finish.
	meet := func(ctx context.Context) error {
		select {
		case gate <- struct{}{}:
		case <-gate:
		case <-time.After(5 * time.Second):
			return errors.New("stages did not overlap")
		}
		return nil
	}
	g.Add("left", nil, meet)
	g.Add("right", nil, meet)
	if err := g.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphStageErrorStopsDependents(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	var ranAfter atomic.Bool
	g.Add("bad", nil, func(ctx context.Context) error { return boom })
	g.Add("next", []string{"bad"}, func(ctx context.Context) error {
		ranAfter.Store(true)
		return nil
	})
	err := g.Run(context.Background(), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "bad" {
		t.Fatalf("err = %v, want StageError for stage bad", err)
	}
	if ranAfter.Load() {
		t.Fatal("dependent stage ran after its dependency failed")
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	g.Add("a", []string{"ghost"}, func(ctx context.Context) error { return nil })
	if err := g.Run(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Fatalf("err = %v, want unknown-dependency error", err)
	}

	c := NewGraph()
	c.Add("x", []string{"y"}, func(ctx context.Context) error { return nil })
	c.Add("y", []string{"x"}, func(ctx context.Context) error { return nil })
	if err := c.Run(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestGraphCancellation(t *testing.T) {
	g := NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var tailRan atomic.Bool
	g.Add("head", nil, func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	g.Add("tail", []string{"head"}, func(ctx context.Context) error {
		tailRan.Store(true)
		return nil
	})
	go func() {
		<-started
		cancel()
	}()
	err := g.Run(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tailRan.Load() {
		t.Fatal("tail stage ran after cancellation")
	}
}

// TestGraphStageHookInjectsFailure pins the fault seam: a hook carried by
// the context runs before each stage body; its error fails the stage (as a
// StageError) without the body ever starting, and dependents are skipped.
func TestGraphStageHookInjectsFailure(t *testing.T) {
	g := NewGraph()
	var midRan, tailRan atomic.Bool
	g.Add("head", nil, func(ctx context.Context) error { return nil })
	g.Add("mid", []string{"head"}, func(ctx context.Context) error {
		midRan.Store(true)
		return nil
	})
	g.Add("tail", []string{"mid"}, func(ctx context.Context) error {
		tailRan.Store(true)
		return nil
	})
	boom := errors.New("injected")
	ctx := WithStageHook(context.Background(), func(stage string) error {
		if stage == "mid" {
			return boom
		}
		return nil
	})
	err := g.Run(ctx, nil)
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "mid" || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want StageError{mid, injected}", err)
	}
	if midRan.Load() {
		t.Fatal("hook error must pre-empt the stage body")
	}
	if tailRan.Load() {
		t.Fatal("dependent ran after injected stage failure")
	}
	// A stage run outside a graph consults the same hook.
	err = RunStage(ctx, nil, "mid", nil, func(ctx context.Context) error {
		midRan.Store(true)
		return nil
	})
	if !errors.As(err, &se) || se.Stage != "mid" || !errors.Is(err, boom) || midRan.Load() {
		t.Fatalf("RunStage err = %v (body ran %v), want StageError{mid, injected} without the body", err, midRan.Load())
	}
	// A nil hook is a no-op passthrough.
	if WithStageHook(context.Background(), nil) != context.Background() {
		t.Fatal("nil hook should return ctx unchanged")
	}
}

// TestGraphCancellationStorm hammers Run with racing cancellations and
// hook-injected failures: every run must return (no deadlock), never leak
// goroutines, and always surface either the caller's cancellation or a
// StageError — never a silent nil alongside skipped stages.
func TestGraphCancellationStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		g := NewGraph()
		var ran atomic.Int32
		g.Add("a", nil, func(ctx context.Context) error { ran.Add(1); return nil })
		g.Add("b", nil, func(ctx context.Context) error { ran.Add(1); return nil })
		g.Add("c", []string{"a", "b"}, func(ctx context.Context) error { ran.Add(1); return nil })
		g.Add("d", []string{"c"}, func(ctx context.Context) error { ran.Add(1); return nil })
		ctx, cancel := context.WithCancel(context.Background())
		hctx := WithStageHook(ctx, func(stage string) error {
			if round%3 == 0 && stage == "c" {
				return errors.New("storm fault")
			}
			return nil
		})
		if round%2 == 0 {
			cancel() // cancel before Run even starts
		} else {
			defer cancel()
		}
		err := g.Run(hctx, nil)
		switch {
		case round%2 == 0:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
			}
		case round%3 == 0:
			var se *StageError
			if !errors.As(err, &se) || se.Stage != "c" {
				t.Fatalf("round %d: err = %v, want StageError{c}", round, err)
			}
			if ran.Load() != 2 {
				t.Fatalf("round %d: %d stages ran, want 2 (a, b)", round, ran.Load())
			}
		default:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if ran.Load() != 4 {
				t.Fatalf("round %d: %d stages ran, want 4", round, ran.Load())
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after storm", before, n)
	}
}

func TestGraphRecordsTrace(t *testing.T) {
	g := NewGraph()
	g.Add("a", nil, func(ctx context.Context) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	g.Add("b", []string{"a"}, func(ctx context.Context) error { return nil })
	tr := obs.NewTrace()
	if err := g.Run(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("%d stage traces", len(stages))
	}
	byName := map[string]obs.StageTrace{}
	for _, s := range stages {
		byName[s.Name] = s
	}
	if byName["a"].Wall < time.Millisecond {
		t.Fatalf("stage a wall %v, want >= 1ms", byName["a"].Wall)
	}
	if byName["b"].Waited < byName["a"].Wall {
		t.Fatalf("stage b queued %v, should wait out stage a (%v)", byName["b"].Waited, byName["a"].Wall)
	}
	if tr.Total() < byName["a"].Wall {
		t.Fatalf("trace total %v below stage wall", tr.Total())
	}
	// A stage run after the graph lands in the same trace, queued from
	// the trace's start.
	if err := RunStage(context.Background(), tr, "c", []string{"b"}, func(ctx context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	stages = tr.Stages()
	if c := stages[len(stages)-1]; c.Name != "c" || len(c.Deps) != 1 || c.Deps[0] != "b" || c.Waited < byName["a"].Wall {
		t.Fatalf("RunStage recorded %+v, want stage c after b, queued past stage a", c)
	}
	rendered := tr.String()
	for _, want := range []string{"stage", "a", "b", "TOTAL"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("trace table missing %q:\n%s", want, rendered)
		}
	}
}
