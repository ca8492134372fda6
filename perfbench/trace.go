package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/rca"
	"repro/internal/serve"
)

// tracer keeps the durations of timed calls at layer boundaries, by layer
// name.
type tracer struct {
	mu     sync.Mutex
	byName map[string]*timing
}

func newTracer() *tracer { return &tracer{byName: map[string]*timing{}} }

// record times fn under name and returns the duration in ms; fn reports
// success, and only successful calls are kept.
func (tr *tracer) record(name string, fn func() bool) float64 {
	start := time.Now()
	ok := fn()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if ok {
		tr.mu.Lock()
		t := tr.byName[name]
		if t == nil {
			t = &timing{}
			tr.byName[name] = t
		}
		t.add(ms)
		tr.mu.Unlock()
	}
	return ms
}

// durations returns the kept durations in ms of the calls named name.
func (tr *tracer) durations(name string) timing {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t := tr.byName[name]; t != nil {
		return timing{ms: append([]float64(nil), t.ms...)}
	}
	return timing{}
}

// replay sizes: enough samples per layer for a median with its count
// printed; the bulk classify replay is the slow one.
const (
	replayBulk    = 40
	replaySmall   = 150
	replayIngest  = 60
	replayRefresh = 8
)

// traced is the per-layer pass. It runs the workload's fixed-rate traffic
// twice — once plain, once with a client span around every operation —
// so the difference of the two classify medians is the tracing overhead,
// then replays sampled request bodies layer by layer in a quiet tier:
// the router, a direct replica, the replica's handler in-process, and
// the library calls behind it. Refresh-side rows come from the stage
// traces of each refreshed revision; workloads without refreshes fold a
// few generated batches and refresh to produce them.
func (b *bench) traced(ctx context.Context, ph phases, cold [][]obs.StageTrace) (*report, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	tr := newTracer()
	rep := &report{}
	if _, err := b.phase(ctx, ph.warm, false, nil); err != nil {
		return nil, err
	}

	// Peak shard backlog, sampled through both measured halves.
	var pendingMax int
	var pmu sync.Mutex
	stopPending := make(chan struct{})
	var sampler pipe.Tasks
	sampler.Go(func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			p := b.t.rt.Sinks().PendingRecords()
			pmu.Lock()
			pendingMax = max(pendingMax, p)
			pmu.Unlock()
			select {
			case <-stopPending:
				return
			case <-tick.C:
			}
		}
	})

	stopRefreshes := b.startRefreshes(ctx)
	wrap := func(kind string, op opFunc) opFunc {
		return func(i int) (outcome, time.Time) {
			var out outcome
			var done time.Time
			tr.record("client."+kind, func() bool { out, done = op(i); return out == opOK })
			return out, done
		}
	}
	// Plain and traced quarters alternate, so drift over the run (a
	// growing heap, retained revisions) lands on both sides.
	var plain, traced phaseOut
	var err error
	for q := 0; q < 4 && err == nil; q++ {
		var po phaseOut
		if q%2 == 0 {
			po, err = b.phase(ctx, ph.fixed/4, true, nil)
			plain = plain.join(po)
		} else {
			po, err = b.phase(ctx, ph.fixed/4, true, wrap)
			traced = traced.join(po)
		}
	}
	stopRefreshes()
	close(stopPending)
	sampler.Wait()
	if err != nil {
		return nil, err
	}

	plainC, _ := plain.byKind()
	tracedC, _ := traced.byKind()
	untracedP50, _ := plainC.pct(50)
	tracedP50, _ := tracedC.pct(50)
	rep.set("trace.overhead_pct", (tracedP50-untracedP50)/untracedP50*100, "%", tracedC.n())

	late := collectSamples(traced.reads).late
	late.ms = append(late.ms, collectSamples(traced.ingest).late.ms...)
	late.ms = append(late.ms, collectSamples(plain.reads).late.ms...)
	late.ms = append(late.ms, collectSamples(plain.ingest).late.ms...)
	lp := tailPct(late.n())
	lv, _ := late.pct(lp)
	rep.set("gen.late_tail_ms", lv, "ms", late.n())
	fmt.Fprintf(b.log, "generator lateness tail is p%s over %d operations\n", pctLabel(lp), late.n())

	ingest := collectSamples(plain.ingest)
	ingestT := collectSamples(traced.ingest)
	attempts := ingest.attempts + ingestT.attempts
	refused := ingest.refused + ingestT.refused
	rejectRatio := 0.0
	if attempts > 0 {
		rejectRatio = float64(refused) / float64(attempts)
	}
	rep.set("shard.reject_ratio", rejectRatio, "ratio", attempts)
	rep.set("shard.pending_max", float64(pendingMax), "count", 0)

	st := b.serveStats()
	lookups := st.CacheHits + st.CacheMisses
	fcLookups := st.ForecastCacheHits + st.ForecastCacheMisses
	rep.set("serve.cache_hit_ratio", ratio(st.CacheHits, lookups), "ratio", int(lookups))
	rep.set("serve.cache_lookups", float64(lookups), "count", 0)
	rep.set("serve.forecast_hit_ratio", ratio(st.ForecastCacheHits, fcLookups), "ratio", int(fcLookups))
	rep.set("serve.forecast_lookups", float64(fcLookups), "count", 0)
	if b.popular != nil {
		fmt.Fprintf(b.log, "traffic-weighted draws: a perfect %d-entry cache would serve %.1f%% of classify draws\n",
			cacheEntries, 100*b.popular.topShare(cacheEntries))
	}

	if err := b.replayClassify(ctx, tr, traced, rep); err != nil {
		return nil, err
	}
	if err := b.replayForecast(tr, traced); err != nil {
		return nil, err
	}
	if err := b.replayIngest(tr); err != nil {
		return nil, err
	}
	if err := b.replayRefresh(ctx, tr); err != nil {
		return nil, err
	}

	for _, name := range layerSpans {
		t := tr.durations(name)
		v, ok := t.pct(50)
		if !ok {
			return nil, fmt.Errorf("layer %s: no sample", name)
		}
		rep.set(name, v, "ms", t.n())
	}
	b.reportRefreshLayers(rep)
	for _, stage := range coldStages {
		t, ok := stageMS(cold, stage)
		if !ok {
			return nil, fmt.Errorf("set-up trace has no %s stage", stage)
		}
		v, _ := t.pct(50)
		rep.set("analysis.cold."+stage+"_ms", v, "ms", t.n())
	}
	b.reportAccounting(rep, tr)
	return rep, nil
}

func ratio(a, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

// layerSpans are the per-layer rows taken as the median of their timed calls.
var layerSpans = []string{
	"shard.partition_ms",
	"serve.http_ms", "serve.handler_ms", "serve.decode_ms", "serve.encode_ms", "serve.classify_ms",
	"serve.snapshot_ms", "rca.eq5_ms", "forest.predict_ms", "rca.materialize_ms", "collect.matrix_ms",
	"probe.decode_ms", "collect.fold_ms", "forecast.compute_ms",
}

// classifyBodies picks the classify requests of the traced half to
// replay, evenly spaced; workloads whose reads are all forecasts would
// have none, so a uniform draw fills in.
func (b *bench) classifyBodies(po phaseOut, n int) [][]uint32 {
	var all [][]uint32
	for _, r := range po.plan {
		if r.fc == nil {
			all = append(all, r.ids)
		}
	}
	if len(all) == 0 {
		for len(all) < n {
			all = append(all, uniformIDs(b.src, len(b.vec.frags), b.sp.batch))
		}
	}
	out := make([][]uint32, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, all[k*len(all)/n])
	}
	return out
}

// replayClassify replays sampled classify bodies one at a time through
// each boundary of the read path and derives the router hop as router
// latency minus direct-replica latency on the same body.
func (b *bench) replayClassify(ctx context.Context, tr *tracer, po phaseOut, rep *report) error {
	n := replaySmall
	if b.sp.batch >= 256 {
		n = replayBulk
	}
	replica := b.t.rt.Replica(0)
	direct := "http://" + replica.Addr().String()
	client := newClient(1)
	pctx := pipe.WithPool(ctx, pipe.Shared())
	var proxy timing
	for k, ids := range b.classifyBodies(po, n) {
		body := b.vec.body(ids)
		// Start every sample from a collected heap, so a collection
		// triggered by an earlier sample's garbage does not land on one
		// layer of this one.
		runtime.GC()
		// Alternate which of the pair goes first, so neither pays the
		// other's garbage or cold caches every time.
		var routed, direct1 outcome
		var routerMS, httpMS float64
		viaRouter := func() {
			routerMS = tr.record("shard.router_ms", func() bool {
				_, routed, _ = post(client, b.t.url+"/v1/classify", "application/json", body, &b.errs)
				return routed == opOK
			})
		}
		viaReplica := func() {
			httpMS = tr.record("serve.http_ms", func() bool {
				_, direct1, _ = post(client, direct+"/v1/classify", "application/json", body, &b.errs)
				return direct1 == opOK
			})
		}
		if k%2 == 0 {
			viaRouter()
			viaReplica()
		} else {
			viaReplica()
			viaRouter()
		}
		if routed != opOK || direct1 != opOK {
			return fmt.Errorf("replay classify: router outcome %d, replica outcome %d", routed, direct1)
		}
		proxy.add(routerMS - httpMS)
		tr.record("serve.handler_ms", func() bool {
			rec := httptest.NewRecorder()
			replica.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
			return rec.Code == http.StatusOK
		})
		var creq serve.ClassifyRequest
		tr.record("serve.decode_ms", func() bool {
			return json.NewDecoder(bytes.NewReader(body)).Decode(&creq) == nil
		})
		rows := make([][]float64, len(creq.Antennas))
		for i, a := range creq.Antennas {
			rows[i] = a.Traffic
		}
		snap := replica.Snapshot()
		var labels []int
		tr.record("serve.classify_ms", func() bool {
			var err error
			labels, err = snap.Classify(pctx, rows)
			return err == nil
		})
		var features *mat.Dense
		tr.record("rca.eq5_ms", func() bool {
			t, err := mat.FromRows(rows)
			if err != nil {
				return false
			}
			features, err = snap.Ref.RSCAOutdoor(t)
			return err == nil
		})
		tr.record("forest.predict_ms", func() bool {
			_, err := snap.Forest.PredictAllContext(pctx, features)
			return err == nil
		})
		resp := serve.ClassifyResponse{ModelRevision: snap.Revision, Results: make([]serve.AntennaVerdict, len(labels))}
		for i, l := range labels {
			resp.Results[i] = serve.AntennaVerdict{ID: creq.Antennas[i].ID, Cluster: l}
		}
		tr.record("serve.encode_ms", func() bool {
			return json.NewEncoder(io.Discard).Encode(resp) == nil
		})
		tr.record("serve.snapshot_ms", func() bool {
			res, ok := b.t.rt.ResultFor(snap.Revision)
			if !ok {
				return false
			}
			_, err := serve.NewModelSnapshot(res)
			return err == nil
		})
		want, ok := b.labelsFor(snap.Revision)
		agree := ok && len(labels) == len(ids)
		for i := 0; agree && i < len(ids); i++ {
			agree = labels[i] == want[ids[i]]
		}
		b.check(agree, "replay classify: library verdicts disagree with revision %016x's offline labels", snap.Revision)
	}
	v, ok := proxy.pct(50)
	if !ok {
		return fmt.Errorf("replay classify: no sample")
	}
	rep.set("shard.proxy_ms", v, "ms", proxy.n())
	return nil
}

// replayForecast times Model.Forecast on the traced half's forecast
// selectors, or on drawn ones where the workload sends none.
func (b *bench) replayForecast(tr *tracer, po phaseOut) error {
	var qs []fcQuery
	for _, r := range po.plan {
		if r.fc != nil {
			qs = append(qs, *r.fc)
		}
	}
	set := b.t.rt.Replica(0).Snapshot().Forecasts
	for len(qs) < replaySmall {
		q, err := drawForecast(b.src, set, b.sp.clusterForecasts)
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	for k := 0; k < replaySmall; k++ {
		q := qs[k*len(qs)/replaySmall]
		var m interface{ Forecast(int) []float64 }
		if q.antenna {
			if am := set.Antenna(q.id); am != nil {
				m = am.Model
			}
		} else if cm := set.Cluster(q.id); cm != nil {
			m = cm.Model
		}
		if m == nil {
			continue
		}
		tr.record("forecast.compute_ms", func() bool { return len(m.Forecast(q.horizon)) == q.horizon })
	}
	return nil
}

// replayIngest times the ingest path's library calls on batch bodies:
// probe decode, ring partition and a fold into a private sink.
func (b *bench) replayIngest(tr *tracer) error {
	batches := b.batches
	if len(batches) == 0 {
		var err error
		batches, err = makeIngestBatches(b.src.Split(), 16, 200, b.t.res.Dataset.Traffic)
		if err != nil {
			return err
		}
	}
	sink := collect.NewSink()
	for k := 0; k < replayIngest; k++ {
		bt := batches[k%len(batches)]
		var recs []probe.Record
		tr.record("probe.decode_ms", func() bool {
			rd := probe.NewReader(bytes.NewReader(bt.body))
			for {
				rec, err := rd.Read()
				if err != nil {
					return err == io.EOF
				}
				recs = append(recs, rec)
			}
		})
		tr.record("shard.partition_ms", func() bool { return len(b.t.rt.Sinks().Partition(recs)) > 0 })
		tr.record("collect.fold_ms", func() bool { sink.AddBatch(recs); return true })
	}
	return nil
}

// replayRefresh produces the refresh-side rows. A workload that refreshed
// on schedule already has them; the others post a few generated batches
// through the router and refresh after each, in the quiet tier. It also
// times the fold inputs of a refresh: the cross-shard traffic matrix and
// the accumulator materialization.
func (b *bench) replayRefresh(ctx context.Context, tr *tracer) error {
	b.mu.Lock()
	have := len(b.refreshes)
	b.mu.Unlock()
	if have < replayRefresh {
		batches, err := makeIngestBatches(b.src.Split(), replayRefresh, 200, b.t.res.Dataset.Traffic)
		if err != nil {
			return err
		}
		client := newClient(1)
		for _, bt := range batches[:replayRefresh-have] {
			if _, out, _ := post(client, b.t.url+"/v1/ingest", "application/octet-stream", bt.body, &b.errs); out != opOK {
				return fmt.Errorf("replay ingest: %v", out)
			}
			b.fresh.ack(time.Since(b.runStart), bt.records, false)
			for b.t.rt.Sinks().PendingRecords() > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
			}
			b.refreshOnce(ctx)
		}
	}
	base := b.t.res.Dataset.Traffic
	acc, err := rca.NewAccumulator(base)
	if err != nil {
		return fmt.Errorf("accumulator: %w", err)
	}
	for k := 0; k < replayRefresh*3; k++ {
		var totals *mat.Dense
		tr.record("collect.matrix_ms", func() bool {
			totals = b.t.rt.Sinks().TrafficMatrix(base.Rows(), base.Cols())
			return true
		})
		tr.record("rca.materialize_ms", func() bool {
			if acc.SetTotals(totals) != nil {
				return false
			}
			acc.Materialize()
			return true
		})
	}
	return nil
}

// refreshStageRows maps per-layer rows to the warm refresh stages behind
// them.
var refreshStageRows = []struct{ row, stage string }{
	{"forest.train_ms", "forest"},
	{"analysis.assign_ms", "assign"},
	{"analysis.rsca_ms", "rsca"},
	{"analysis.outdoor_ms", "outdoor"},
	{"analysis.forecast_ms", "forecast"},
}

// reportRefreshLayers reads each refreshed revision's stage trace through
// Router.ResultFor, plus the fan-out lag and the escalation count.
func (b *bench) reportRefreshLayers(rep *report) {
	b.mu.Lock()
	refs := append([]refreshObs(nil), b.refreshes...)
	b.mu.Unlock()
	var traces [][]obs.StageTrace
	var fanout timing
	for _, o := range refs {
		fanout.add(o.fanoutMS)
		if res, ok := b.t.rt.ResultFor(o.revision); ok {
			traces = append(traces, res.Trace().Stages())
		}
	}
	v, _ := fanout.pct(50)
	rep.set("shard.fanout_ms", v, "ms", fanout.n())
	for _, x := range refreshStageRows {
		t, _ := stageMS(traces, x.stage)
		v, _ := t.pct(50)
		rep.set(x.row, v, "ms", t.n())
	}
	info := b.t.rt.Refresher().Info()
	rep.set("analysis.escalations", float64(info.Escalations), "count", int(info.Runs))
}

// reportAccounting checks that the read path's parts add up to the
// router-path median: proxy + (http − handler) + decode + classify +
// encode, and reports the gap.
func (b *bench) reportAccounting(rep *report, tr *tracer) {
	med := func(name string) float64 {
		m, _ := rep.get(name)
		return m.Value
	}
	router := tr.durations("shard.router_ms")
	routerMS, _ := router.pct(50)
	parts := med("shard.proxy_ms") + med("serve.http_ms") - med("serve.handler_ms") +
		med("serve.decode_ms") + med("serve.classify_ms") + med("serve.encode_ms")
	rep.set("trace.router_ms", routerMS, "ms", router.n())
	rep.set("trace.gap_pct", (routerMS-parts)/routerMS*100, "%", router.n())
	fmt.Fprintf(b.log, "router-path median %.3f ms, parts %.3f ms\n", routerMS, parts)
}
