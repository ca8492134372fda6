package main

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/pipe"
	"repro/internal/rng"
)

// schedule returns the due offsets of an open-loop stream at rate ops/s over
// d: one operation per 1/rate slot, placed at the slot centre plus a seeded
// jitter of up to ±25% of the slot. The jitter keeps arrivals from
// phase-locking with the server's own periodic work while staying far
// tighter than Poisson arrivals, whose bursts would dominate run-to-run
// spread of a tail percentile at the sample counts a short run affords.
// Offsets are strictly increasing; the same source state gives the same
// schedule.
func schedule(src *rng.Source, rate float64, d time.Duration) []time.Duration {
	if rate <= 0 || d <= 0 {
		return nil
	}
	gap := float64(time.Second) / rate
	n := int(math.Floor(d.Seconds() * rate))
	out := make([]time.Duration, n)
	for i := range out {
		jitter := (src.Float64() - 0.5) * 0.5 * gap
		out[i] = time.Duration(float64(i)*gap + gap/2 + jitter)
	}
	return out
}

// outcome classifies one operation.
type outcome uint8

const (
	opOK      outcome = iota
	opRefused         // 429 or 503: the system shed the load
	opFailed          // transport error or unexpected status
	opWrong           // answered, but the audit rejected the answer
	opDropped         // never sent: its rung ended while it was still queued
)

// sample is one scheduled operation's record, all times relative to the
// stream start.
type sample struct {
	due, sent, done time.Duration
	out             outcome
}

// latencyMS is the operation's latency from its due time. A dropped
// operation's latency is the time it had waited when its rung ended — a
// lower bound that still grows with the backlog.
func (s sample) latencyMS() float64 {
	return float64(s.done-s.due) / float64(time.Millisecond)
}

// lateMS is how late the generator sent the operation against its schedule.
func (s sample) lateMS() float64 {
	return float64(s.sent-s.due) / float64(time.Millisecond)
}

// opFunc sends operation i and returns its outcome and the time its answer
// had been read. Work the benchmark does after that, such as auditing the
// answer, is not part of the operation's latency.
type opFunc func(i int) (outcome, time.Time)

// drive runs one open-loop stream: conns workers claim operations in
// schedule order, sleep until each one is due, and call op(i). A worker
// that falls behind sends immediately, so a stall shows up as latency of
// the operations queued behind it, timed from their due time. Operations
// still unsent at cutoff (relative to start; ≤ 0 means never) are dropped
// unsent. drive returns once every claimed operation has finished.
func drive(ctx context.Context, start time.Time, due []time.Duration, conns int, cutoff time.Duration, op opFunc) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var workers pipe.Tasks
	for w := 0; w < conns; w++ {
		workers.Go(func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				s := &out[i]
				s.due = due[i]
				if wait := time.Until(start.Add(due[i])); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
					case <-t.C:
					}
				}
				now := time.Since(start)
				if ctx.Err() != nil || (cutoff > 0 && now >= cutoff) {
					s.sent, s.done, s.out = now, now, opDropped
					continue
				}
				s.sent = now
				var done time.Time
				s.out, done = op(i)
				s.done = done.Sub(start)
			}
		})
	}
	workers.Wait()
	return out
}

// streamStats folds samples into a latency population plus counts.
type streamStats struct {
	lat      timing
	late     timing
	attempts int
	refused  int
	failed   int
	wrong    int
	dropped  int
}

func collectSamples(ss []sample) streamStats {
	var st streamStats
	for _, s := range ss {
		if s.out == opDropped {
			st.dropped++
			st.lat.add(s.latencyMS())
			continue
		}
		st.attempts++
		st.late.add(s.lateMS())
		switch s.out {
		case opOK:
			st.lat.add(s.latencyMS())
		case opRefused:
			st.refused++
			st.lat.miss()
		case opFailed:
			st.failed++
			st.lat.miss()
		case opWrong:
			st.wrong++
			st.lat.miss()
		}
	}
	return st
}

// bad counts the operations that missed: failed, refused or audit-rejected.
func (s streamStats) bad() int { return s.refused + s.failed + s.wrong }
