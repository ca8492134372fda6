package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/rng"
)

// ladderSpec fixes a workload's capacity probe: rungs at base·step^k
// operations/s, each held for rung, stopping after the first rung that
// misses. A rung passes when its operations were sent before the rung
// ended (the backlog did not grow), none was refused, failed or wrong, its
// median latency from due time is within limitMS, and the workload's own
// backlog check (if any) holds. The limit is on the median because a rung
// is too short to support a tail percentile under the eligibility rule,
// and because a growing backlog delays every operation behind it while a
// transient stall delays only a few.
type ladderSpec struct {
	base, step float64
	rungs      int
	rung       time.Duration
	limitMS    float64
	// unitsPerOp converts operations/s into the capacity's unit (antenna
	// vectors or records per request).
	unitsPerOp float64
}

type rungResult struct {
	rate     float64
	st       streamStats
	medianMS float64
	backlog  bool
	pass     bool
}

// runLadder climbs the ladder. op builds the operation function for one
// rung; backlogOK, when non-nil, is asked after each rung whether the
// system's own queues kept up. The capacity is the rate at which the
// rung median latency crosses the limit, interpolated between the last
// passing and the first failing rung; a failing rung that missed for
// another reason (refusals, failures, queue growth) gives no slope, and
// the capacity is then the last passing rate. A ladder whose first rung
// misses gives 0, and one that never misses gives its top rate; both are
// logged, and neither fails the run. Only cancellation is an error.
func runLadder(ctx context.Context, spec ladderSpec, src *rng.Source, conns int, log io.Writer,
	op func(rate float64) opFunc, backlogOK func() bool) (float64, error) {
	var rungs []rungResult
	for k := 0; k < spec.rungs; k++ {
		rate := spec.base * math.Pow(spec.step, float64(k))
		due := schedule(src, rate, spec.rung)
		start := time.Now()
		ss := drive(ctx, start, due, conns, spec.rung, op(rate))
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		r := rungResult{rate: rate, st: collectSamples(ss), backlog: true}
		r.medianMS = quantile(r.st.lat.ms, 0.5)
		if backlogOK != nil {
			r.backlog = backlogOK()
		}
		// A few operations still queued when the rung ends are a transient
		// stall (a GC pause, a refresh holding both cores), not growth; a
		// growing backlog shows in the latency of everything behind it.
		r.pass = r.st.dropped <= max(conns, len(due)/50) && r.st.bad() == 0 && r.backlog && r.medianMS <= spec.limitMS
		rungs = append(rungs, r)
		fmt.Fprintf(log, "  rung %2d  %9.1f op/s  sent %5d  dropped %4d  missed %4d  median %8.2f ms  backlog-ok %-5v  pass %v\n",
			k, rate, r.st.attempts, r.st.dropped, r.st.bad(), r.medianMS, r.backlog, r.pass)
		if !r.pass {
			break
		}
	}
	last := rungs[len(rungs)-1]
	switch {
	case last.pass:
		fmt.Fprintf(log, "  every rung passed: the capacity is at least the top rate\n")
		return last.rate * spec.unitsPerOp, nil
	case len(rungs) == 1:
		fmt.Fprintf(log, "  the first rung missed: no rate passed\n")
		return 0, nil
	}
	return interpolateCapacity(rungs[len(rungs)-2], last, spec.limitMS) * spec.unitsPerOp, nil
}

// interpolateCapacity places the crossing of the limit between a passing
// and a failing rung, linear in rate. Drops stay in the slope: a dropped
// operation's latency is the wait it had accrued, which grows with the
// backlog.
func interpolateCapacity(pass, fail rungResult, limitMS float64) float64 {
	if fail.st.bad() > 0 || !fail.backlog || math.IsInf(fail.medianMS, 1) || fail.medianMS <= limitMS {
		return pass.rate
	}
	frac := (limitMS - pass.medianMS) / (fail.medianMS - pass.medianMS)
	return pass.rate + frac*(fail.rate-pass.rate)
}
