package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/forecast"
	"repro/internal/pipe"
	"repro/internal/rng"
	"repro/internal/serve"
)

// spec fixes one workload's traffic. Rates are operations per second;
// every run of the workload offers exactly these rates, so the sample
// counts behind each percentile are fixed by --seconds alone.
type spec struct {
	name string
	// classify_bulk and query_mix: the read stream at its fixed rate.
	readRate  float64
	batch     int     // antennas per classify request
	fcShare   float64 // share of reads that are forecast queries
	revisions bool    // classify vectors carry a fixed revision (cacheable)
	byTraffic bool    // classify antennas drawn by their traffic instead of uniformly
	// clusterForecasts limits forecast selectors to clusters: a refresh
	// may move a cluster member and with it the per-antenna forecasters
	// the forecast stage samples, so an antenna selector drawn up front
	// can legitimately stop resolving mid-run.
	clusterForecasts bool
	// ingest_refresh: the ingest stream, refresh period and the reads
	// beside them.
	ingestRate    float64 // batches/s
	ingestBatch   int     // records per batch
	refreshPeriod time.Duration
	// ladder climbs the ingest stream when the workload ingests, the read
	// stream otherwise.
	ladder ladderSpec
}

// cacheEntries is serve's default classify LRU size (serve.Config).
const cacheEntries = 4096

// specs are the workloads; README.md gives the reason for each and marks
// which values are assumptions. The fixed read rates keep the tier near a
// third of its capacity on two cores, so that a loss of CPU to co-tenants
// slows requests without building a queue. The ladders start at the fixed
// rate; their 20 rungs reach several times today's capacity, so a faster
// tier still finds its limit.
var specs = []spec{
	{
		name:     "classify_bulk",
		readRate: 20, batch: 512,
		ladder: ladderSpec{base: 20, step: 1.12, rungs: 20, limitMS: 60, unitsPerOp: 512},
	},
	{
		name:     "query_mix",
		readRate: 200, batch: 16, fcShare: 0.25, revisions: true, byTraffic: true,
		ladder: ladderSpec{base: 200, step: 1.25, rungs: 20, limitMS: 10, unitsPerOp: 1},
	},
	{
		name:       "ingest_refresh",
		ingestRate: 70, ingestBatch: 200, refreshPeriod: 750 * time.Millisecond,
		readRate: 30, batch: 16, fcShare: 0.25, revisions: true, byTraffic: true, clusterForecasts: true,
		ladder: ladderSpec{base: 200, step: 1.3, rungs: 20, limitMS: 10, unitsPerOp: 200},
	},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// bench is one run of one workload against one tier.
type bench struct {
	sp    spec
	t     *tier
	src   *rng.Source
	conns int
	log   io.Writer
	audit auditLog
	// errs records failed operations (transport errors, unexpected status).
	errs  auditLog
	fresh freshness

	vec     *vectors
	popular *weighted // classify antenna draws on byTraffic workloads
	batches []ingestBatch

	readConns, ingestConns   int
	readClient, ingestClient *http.Client
	// nextBatch is the pool index of the next ingest batch to send.
	nextBatch int

	// runStart anchors every recorded time of the run.
	runStart time.Time
	// auditNS is the wall time spent auditing read answers.
	auditNS atomic.Int64

	mu        sync.Mutex
	refreshes []refreshObs
	attempted int
	failed    int
}

// refreshObs is one scheduled RefreshOnce call.
type refreshObs struct {
	ms        float64
	fanoutMS  float64
	revision  uint64
	escalated bool
}

func (b *bench) labelsFor(rev uint64) ([]int, bool) {
	res, ok := b.t.rt.ResultFor(rev)
	if !ok {
		return nil, false
	}
	return res.OutdoorLabels, true
}

func (b *bench) setFor(rev uint64) (*forecast.Set, bool) {
	res, ok := b.t.rt.ResultFor(rev)
	if !ok {
		return nil, false
	}
	return res.Forecasts, true
}

// read is one planned read request: a classify of ids, or a forecast query.
type read struct {
	ids []uint32
	fc  *fcQuery
}

// planReads draws n reads from the workload's read law.
func (b *bench) planReads(n int) ([]read, error) {
	out := make([]read, n)
	set := b.t.res.Forecasts
	for i := range out {
		if b.sp.fcShare > 0 && b.src.Float64() < b.sp.fcShare {
			q, err := drawForecast(b.src, set, b.sp.clusterForecasts)
			if err != nil {
				return nil, err
			}
			out[i].fc = &q
			continue
		}
		if b.popular != nil {
			out[i].ids = b.popular.ids(b.sp.batch)
		} else {
			out[i].ids = uniformIDs(b.src, len(b.vec.frags), b.sp.batch)
		}
	}
	return out, nil
}

// readOp sends planned reads through the router and audits every answer
// once it has been read, outside the operation's latency.
func (b *bench) readOp(c *http.Client, reads []read) opFunc {
	return func(i int) (outcome, time.Time) {
		r := reads[i]
		url, body := b.t.url+"/v1/classify", []byte(nil)
		if r.fc != nil {
			url, body = b.t.url+"/v1/forecast", r.fc.body
		} else {
			body = b.vec.body(r.ids)
		}
		data, out, done := post(c, url, "application/json", body, &b.errs)
		if out != opOK {
			return out, done
		}
		if r.fc != nil {
			_, out = checkForecast(data, *r.fc, b.setFor, &b.audit)
		} else {
			_, out = checkClassify(data, r.ids, b.labelsFor, &b.audit)
		}
		b.auditNS.Add(int64(time.Since(done)))
		return out, done
	}
}

// ingestOp posts pooled probe batches through the router; every 202 is
// recorded for staleness and the folded == acked audit.
func (b *bench) ingestOp(c *http.Client, first int, measured bool) opFunc {
	return func(i int) (outcome, time.Time) {
		bt := b.batches[(first+i)%len(b.batches)]
		_, out, done := post(c, b.t.url+"/v1/ingest", "application/octet-stream", bt.body, &b.errs)
		if out == opOK {
			b.fresh.ack(done.Sub(b.runStart), bt.records, measured)
		}
		return out, done
	}
}

// check records one run-level audit as an operation: it is attempted, and
// it fails when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	b.attempted++
	if !ok {
		b.failed++
	}
	b.mu.Unlock()
	if !ok {
		b.audit.fail(format, args...)
	}
}

// count adds operations to the run's attempted/failed totals.
func (b *bench) count(st streamStats, countRefused bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted += st.attempts
	b.failed += st.failed + st.wrong
	if countRefused {
		b.failed += st.refused
	}
}

// refreshLoop calls RefreshOnce every period until stop closes, auditing
// that every live replica serves the published revision when it returns.
func (b *bench) refreshLoop(ctx context.Context, period time.Duration, stop <-chan struct{}) {
	loopStart := time.Now()
	for k := 1; ; k++ {
		due := loopStart.Add(time.Duration(k) * period)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		b.refreshOnce(ctx)
	}
}

func (b *bench) refreshOnce(ctx context.Context) {
	rt := b.t.rt
	folded := int64(rt.Sinks().FoldedRecords())
	start := time.Since(b.runStart)
	out, err := rt.RefreshOnce(ctx)
	end := time.Since(b.runStart)
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if err != nil {
		b.audit.fail("refresh: %v", err)
		b.mu.Lock()
		b.failed++
		b.mu.Unlock()
		return
	}
	b.fresh.refresh(start, end, folded)
	for i := 0; i < b.t.reps; i++ {
		rev := rt.Replica(i).Snapshot().Revision
		b.check(rev == out.Revision, "refresh: replica %d serves %016x after revision %016x was published",
			i, rev, out.Revision)
	}
	b.check(!out.Stats.Escalated, "refresh: drift %.4f escalated past the threshold", out.Stats.Drift)
	b.mu.Lock()
	b.refreshes = append(b.refreshes, refreshObs{
		ms:        float64(end-start) / float64(time.Millisecond),
		fanoutMS:  rt.Stats().LastFanoutMS,
		revision:  out.Revision,
		escalated: out.Stats.Escalated,
	})
	b.mu.Unlock()
}

// heapSampler records the peak Go heap in use while it runs: the heap the
// last garbage collection marked live. A collection marks a growing heap
// up to one cycle late, so finish collects once more and reads the live
// heap at the end of the window too.
type heapSampler struct {
	peak  atomic.Uint64
	stop  chan struct{}
	tasks pipe.Tasks
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.tasks.Go(func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	})
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.tasks.Wait()
	runtime.GC()
	h.sample()
	return h.peak.Load()
}

// phases are a run's durations derived from --seconds: a warm-up that is
// not measured, the fixed-rate phase, and the ladder's rung length. The
// fixed phase takes most of the run, since it carries every percentile;
// a ladder rung is judged on its median only.
type phases struct {
	warm, fixed, rung time.Duration
}

func phasesFor(seconds int) phases {
	s := time.Duration(seconds) * time.Second
	warm := s / 10
	if warm > 1500*time.Millisecond {
		warm = 1500 * time.Millisecond
	}
	return phases{warm: warm, fixed: s * 4 / 5, rung: s / 60}
}

// result is what one run measured, before it is printed.
type result struct {
	rep      report
	headline headline
}

// headline holds the end-to-end values every workload reports under the
// same names: the calm median latency of its headline path from due time,
// the process CPU time per headline operation, and the heap peak. Plain
// medians and tails are printed in the table but not gated: README.md
// explains why.
type headline struct {
	calmMS, cpuMSPerOp, heapMB float64
}

// calmSegments is how many time segments calmMedian splits the fixed
// phase into.
const calmSegments = 8

// prepare encodes the request material and opens the clients: reads get
// the connections ingest does not, and every stream at least one.
func (b *bench) prepare() error {
	sp := b.sp
	b.runStart = time.Now()
	var err error
	b.vec, err = newVectors(b.t.res.Dataset.OutdoorTraffic, sp.revisions)
	if err != nil {
		return err
	}
	if sp.byTraffic {
		if b.popular, err = trafficPicker(b.src.Split(), b.t.res.Dataset.OutdoorTraffic); err != nil {
			return err
		}
	}
	b.readConns = b.conns
	if sp.ingestRate > 0 {
		b.batches, err = makeIngestBatches(b.src.Split(), 64, sp.ingestBatch, b.t.res.Dataset.Traffic)
		if err != nil {
			return err
		}
		b.ingestConns = max(1, b.conns/2)
		b.readConns = max(1, b.conns-b.ingestConns)
		b.ingestClient = newClient(b.ingestConns)
	}
	b.readClient = newClient(b.readConns)
	return nil
}

// phaseOut is what one phase's streams recorded.
type phaseOut struct {
	reads  []sample
	plan   []read
	ingest []sample
}

// join appends another phase's records.
func (po phaseOut) join(o phaseOut) phaseOut {
	return phaseOut{
		reads:  append(po.reads, o.reads...),
		plan:   append(po.plan, o.plan...),
		ingest: append(po.ingest, o.ingest...),
	}
}

// byKind splits the read latencies into classify and forecast timings.
func (po phaseOut) byKind() (classify, fc timing) {
	for i, s := range po.reads {
		t := &classify
		if po.plan[i].fc != nil {
			t = &fc
		}
		if s.out == opOK {
			t.add(s.latencyMS())
		} else {
			t.miss()
		}
	}
	return classify, fc
}

// wrapFn lets the traced pass observe each operation of a stream.
type wrapFn func(kind string, op opFunc) opFunc

// phase runs the workload's fixed-rate streams for d: reads on every
// workload and ingest on ingest_refresh. Acks of a measured phase count
// toward staleness. Every operation is charged to attempted/failed.
func (b *bench) phase(ctx context.Context, d time.Duration, measured bool, wrap wrapFn) (phaseOut, error) {
	sp := b.sp
	var po phaseOut
	due := schedule(b.src, sp.readRate, d)
	plan, err := b.planReads(len(due))
	if err != nil {
		return po, err
	}
	po.plan = plan
	readOp := b.readOp(b.readClient, plan)
	var ingestDue []time.Duration
	var ingestOp opFunc
	if sp.ingestRate > 0 {
		ingestDue = schedule(b.src, sp.ingestRate, d)
		ingestOp = b.ingestOp(b.ingestClient, b.nextBatch, measured)
		b.nextBatch += len(ingestDue)
	}
	if wrap != nil {
		readOp = wrap("read", readOp)
		if ingestOp != nil {
			ingestOp = wrap("ingest", ingestOp)
		}
	}
	start := time.Now()
	var streams pipe.Tasks
	streams.Go(func() { po.reads = drive(ctx, start, due, b.readConns, 0, readOp) })
	if ingestDue != nil {
		streams.Go(func() { po.ingest = drive(ctx, start, ingestDue, b.ingestConns, 0, ingestOp) })
	}
	streams.Wait()
	b.count(collectSamples(po.reads), true)
	b.count(collectSamples(po.ingest), true)
	return po, ctx.Err()
}

// startRefreshes starts the scheduled refresh loop when the workload has
// one; the returned stop waits for an in-flight refresh and is idempotent.
func (b *bench) startRefreshes(ctx context.Context) func() {
	if b.sp.refreshPeriod <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var loop pipe.Tasks
	loop.Go(func() { b.refreshLoop(ctx, b.sp.refreshPeriod, stop) })
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		loop.Wait()
	}
}

// capacity climbs the workload's ladder: ingest batches on ingest_refresh,
// reads elsewhere. Refusals on a rung are the capacity signal, so only
// failed and wrong operations are charged as failures.
func (b *bench) capacity(ctx context.Context, ph phases) (float64, error) {
	sp := b.sp
	lspec := sp.ladder
	lspec.rung = ph.rung
	fmt.Fprintf(b.log, "ladder (%s, rung %v, median limit %g ms):\n", sp.name, ph.rung, lspec.limitMS)
	charge := func(op opFunc) opFunc {
		return func(i int) (outcome, time.Time) {
			out, done := op(i)
			b.mu.Lock()
			b.attempted++
			if out == opWrong || out == opFailed {
				b.failed++
			}
			b.mu.Unlock()
			return out, done
		}
	}
	if sp.ingestRate > 0 {
		pendingOK := func() bool { return b.t.rt.Sinks().PendingRecords() <= 4*sp.ingestBatch }
		return runLadder(ctx, lspec, b.src, b.ingestConns, b.log, func(rate float64) opFunc {
			op := b.ingestOp(b.ingestClient, b.nextBatch, false)
			b.nextBatch += int(rate*ph.rung.Seconds()) + 1
			return charge(op)
		}, pendingOK)
	}
	var planErr error
	c, err := runLadder(ctx, lspec, b.src, b.readConns, b.log, func(rate float64) opFunc {
		plan, err := b.planReads(int(rate*ph.rung.Seconds()) + 1)
		if err != nil {
			planErr = err
			return func(int) (outcome, time.Time) { return opFailed, time.Now() }
		}
		return charge(b.readOp(b.readClient, plan))
	}, nil)
	if planErr != nil {
		return 0, planErr
	}
	return c, err
}

// run drives the workload: warm-up, the fixed-rate phase, then the
// capacity ladder, and audits the answers throughout. The heap peak and
// the CPU cost cover the warm-up and fixed-rate phases only, so neither
// depends on how far the ladder climbs; the ladder runs without
// scheduled refreshes for the same reason.
func (b *bench) run(ctx context.Context, ph phases) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	heapDone := false
	defer func() {
		if !heapDone {
			heap.finish()
		}
	}()

	// Warm-up: same traffic, not measured, so connections, caches and
	// lazily built state are in place before timing starts.
	if _, err := b.phase(ctx, ph.warm, false, nil); err != nil {
		return nil, err
	}
	stopRefreshes := b.startRefreshes(ctx)
	defer stopRefreshes()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	audit0 := b.auditNS.Load()
	fixed, err := b.phase(ctx, ph.fixed, true, nil)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	auditNS := b.auditNS.Load() - audit0
	if err := b.awaitCovered(ctx); err != nil {
		return nil, err
	}
	stopRefreshes()
	heapDone = true
	heapMB := float64(heap.finish()) / 1e6

	capacity, err := b.capacity(ctx, ph)
	if err != nil {
		return nil, fmt.Errorf("capacity ladder: %w", err)
	}

	res := &result{}
	r := &res.rep
	h := &res.headline
	h.heapMB = heapMB
	headOps := len(fixed.reads)
	if b.sp.ingestRate > 0 {
		headOps = len(fixed.ingest)
	}
	h.cpuMSPerOp = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(headOps)
	readSt := collectSamples(fixed.reads)
	ingestSt := collectSamples(fixed.ingest)
	classifyT, forecastT := fixed.byKind()
	// head is the headline latency population, in time order: the
	// request latency on the read workloads, the RefreshOnce wall time on
	// ingest_refresh.
	var head timing
	switch b.sp.name {
	case "classify_bulk":
		if err := r.setPct("classify", &classifyT, 50, tailPct(classifyT.n())); err != nil {
			return nil, err
		}
		r.set("classify_capacity_vps", capacity, "1/s", 0)
		head = classifyT
	case "query_mix":
		if err := b.reportReads(r, &readSt.lat, &classifyT, &forecastT); err != nil {
			return nil, err
		}
		r.set("read_capacity_rps", capacity, "1/s", 0)
		head = readSt.lat
	case "ingest_refresh":
		if head, err = b.reportIngest(r, &ingestSt); err != nil {
			return nil, err
		}
		if err := b.reportReads(r, &readSt.lat, &classifyT, &forecastT); err != nil {
			return nil, err
		}
		r.set("ingest_capacity_rps", capacity, "1/s", 0)
	}
	h.calmMS = head.calmMedian(calmSegments)
	r.set("p50_calm_ms", h.calmMS, "ms", head.n())
	late := readSt.late
	late.ms = append(late.ms, ingestSt.late.ms...)
	if p := tailPct(late.n()); p > 0 {
		v, _ := late.pct(p)
		r.set(fmt.Sprintf("gen.late_p%s_ms", pctLabel(p)), v, "ms", late.n())
	}
	// The audits run in this process: their share of the CPU that
	// cpu_ms_per_op counts.
	r.set("gen.audit_cpu_pct", float64(auditNS)/float64(cpu1-cpu0)*100, "%", len(fixed.reads))
	r.set("heap_peak_mb", h.heapMB, "MB", 0)
	r.set("cpu_ms_per_op", h.cpuMSPerOp, "ms/op", headOps)
	return res, nil
}

// awaitCovered keeps the scheduled refreshes running until one has
// started after every measured batch was folded, so that each has a
// staleness; it returns at once on workloads without ingest.
func (b *bench) awaitCovered(ctx context.Context) error {
	const wait = 10 * time.Second
	deadline := time.Now().Add(wait)
	for {
		_, uncovered := b.fresh.staleness()
		if uncovered == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("staleness: %d measured batches still uncovered %v after the phase", uncovered, wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// cpuTime is the user plus system CPU time the process has used: the
// tier, the load generator and the audits together.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// reportReads records the read rows: all reads, then classify and
// forecast apart.
func (b *bench) reportReads(r *report, reads, classifyT, forecastT *timing) error {
	for _, x := range []struct {
		prefix string
		t      *timing
	}{{"read", reads}, {"classify", classifyT}, {"forecast", forecastT}} {
		if err := r.setPct(x.prefix, x.t, 50, tailPct(x.t.n())); err != nil {
			return err
		}
	}
	return nil
}

// reportIngest records ingest_refresh's rows: ack latency, refresh time,
// staleness and the escalation count. It returns the RefreshOnce wall
// times in ms, in time order: the workload's headline. Staleness is not
// the headline because most of it is the wait for the next scheduled
// refresh, which the benchmark's cadence sets.
func (b *bench) reportIngest(r *report, ingestSt *streamStats) (timing, error) {
	var refreshT timing
	if err := r.setPct("ingest_ack", &ingestSt.lat, 50, tailPct(ingestSt.lat.n())); err != nil {
		return refreshT, err
	}
	escalations := 0
	b.mu.Lock()
	for _, o := range b.refreshes {
		refreshT.add(o.ms)
		if o.escalated {
			escalations++
		}
	}
	b.mu.Unlock()
	if err := r.setPct("refresh", &refreshT, 50); err != nil {
		return refreshT, err
	}
	fmt.Fprintf(b.log, "refresh wall times in ms, in order: %.1f\n", refreshT.ms)
	var staleT timing
	stale, uncovered := b.fresh.staleness()
	b.check(uncovered == 0, "staleness: %d measured batches were never covered by a refresh", uncovered)
	for _, s := range stale {
		staleT.add(s * 1000)
	}
	tail := tailPct(staleT.n())
	if tail == 0 {
		return refreshT, fmt.Errorf("staleness: %d samples cannot support a median", staleT.n())
	}
	p50MS, _ := staleT.pct(50)
	tailMS, _ := staleT.pct(tail)
	r.set("staleness_p50_s", p50MS/1000, "s", staleT.n())
	r.set(fmt.Sprintf("staleness_p%s_s", pctLabel(tail)), tailMS/1000, "s", staleT.n())
	r.set("escalations", float64(escalations), "count", refreshT.n())
	return refreshT, nil
}

// serveStats sums the replicas' serving statistics.
func (b *bench) serveStats() serve.Stats {
	var sum serve.Stats
	for i := 0; i < b.t.reps; i++ {
		st := b.t.rt.Replica(i).Stats()
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.ForecastCacheHits += st.ForecastCacheHits
		sum.ForecastCacheMisses += st.ForecastCacheMisses
	}
	return sum
}
