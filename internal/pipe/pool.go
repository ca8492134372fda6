// Package pipe is the staged pipeline engine of the analysis stack: a
// deterministic DAG scheduler that runs named stages concurrently once
// their dependencies complete, and a single bounded worker pool shared by
// every data-parallel kernel (pairwise distances, forest training,
// TreeSHAP, temporal medians) in place of the ad-hoc per-call-site
// goroutine fan-outs the packages used to spawn. Context cancellation is
// honored between work items and between stages.
package pipe

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is a bounded worker pool. The zero capacity of the process-shared
// pool is GOMAXPROCS; every ForEach caller additionally contributes its
// own goroutine, so progress never depends on acquiring a pool slot and
// nested or concurrent ForEach calls cannot deadlock.
type Pool struct {
	// sem holds capacity-1 slots for helper goroutines; the calling
	// goroutine always participates without a slot.
	sem chan struct{}
}

// NewPool builds a pool running at most capacity work items at once per
// caller (capacity < 1 is treated as 1, i.e. fully inline).
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{sem: make(chan struct{}, capacity-1)}
}

var shared = NewPool(runtime.GOMAXPROCS(0))

// Shared returns the process-wide pool used by the analysis substrates.
func Shared() *Pool { return shared }

// Workers returns how many goroutines one ForEach call can run at once:
// the caller plus the pool's helper slots.
func (p *Pool) Workers() int { return cap(p.sem) + 1 }

// ForEach runs fn(i) for every i in [0, n), distributing items across the
// caller's goroutine plus up to capacity-1 pool workers. Items are claimed
// dynamically, but callers that give each index its own output slot get
// deterministic results regardless of scheduling. Cancelling ctx stops
// workers from claiming further items; items already started run to
// completion. Returns ctx.Err() if the context was cancelled.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	obs.Add("pipe.foreach", 1)
	obs.Add("pipe.items", int64(n))
	var next int64
	done := ctx.Done()
	run := func() {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	// Recruit helpers only while slots are free: a saturated pool keeps
	// the caller running inline instead of blocking on a slot.
	for w := 1; w < n; w++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					//lint:allow ctxguard releasing a held slot back to a buffered semaphore can never block; a select here would leak the slot on cancellation
					<-p.sem
					wg.Done()
				}()
				run()
			}()
		default:
			w = n // pool saturated; no point trying further slots
		}
	}
	run()
	wg.Wait()
	return ctx.Err()
}
