package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/collect"
	"repro/internal/fault"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/serve"
	"repro/internal/services"
	"repro/internal/shard"
	"repro/internal/synth"
)

// The chaos soak stands up live servers (plus a TCP collector) and drives
// three kinds of leg against them under seeded fault rules (injected dial
// refusals, mid-stream resets, ingest/fold/classify latency, queue
// pressure): N fault schedules racing model swaps, a swap storm of
// refresh-published revisions, and a shard storm that kills a shard and a
// replica of the sharded tier. Every leg asserts the same contracts:
//
//  1. Every 202-acked ingest batch survives a graceful shutdown — the
//     aggregate holds exactly the acked records.
//  2. Served clusters stay bit-identical to the offline pipeline's
//     Result.OutdoorLabels for whichever model revision the response
//     echoes, even while swaps race in-flight requests.
//  3. The process degrades (429/503, exporter retries) rather than losing
//     data or deadlocking — every leg and the final drain finish inside a
//     hard deadline.
//
// Each check is written once: classifyAuditor holds (2); soak.end bounds
// the drain (3), then checks the folds against ingestPoster's acks (1).
//
// The fault decision streams are pure functions of the printed seed
// (fault.Digest over the same rules reproduces them without a server), so
// a failing leg is rerun exactly with the reproduce line runChaos
// prints. Which request consumes the n-th decision remains
// scheduling-dependent; the digest pins the plan, not the interleaving.

const (
	stormSwaps     = 50  // refresh-published swaps the swap storm must complete
	stormShards    = 3   // the shard storm's ring; it kills the last shard
	stormBatch     = 25  // records in every storm ingest batch
	ingestAttempts = 200 // posts of one ingest batch before it counts as lost
)

// soakClient sends every soak request; outliving its timeout fails a leg.
var soakClient = &http.Client{Timeout: 30 * time.Second}

// chaosRules is the fixed fault schedule shape shared by every run; only
// the seed varies between schedules.
func chaosRules() map[fault.Site]fault.Rule {
	ms := time.Millisecond
	return map[fault.Site]fault.Rule{
		fault.Dial:      {ErrProb: 0.45},
		fault.ConnWrite: {ErrProb: 0.02, DelayProb: 0.10, Delay: ms},
		fault.ConnRead:  {DelayProb: 0.10, Delay: ms},
		fault.Ingest:    {DelayProb: 0.30, Delay: 2 * ms},
		fault.Fold:      {DelayProb: 0.60, Delay: 2 * ms},
		fault.ShardFold: {DelayProb: 0.40, Delay: 2 * ms},
		fault.Classify:  {DelayProb: 0.25, Delay: ms},
	}
}

// scheduleSeed derives the i-th schedule's injector seed from the base
// seed (splitmix64 finalizer, so adjacent schedules decorrelate).
func scheduleSeed(base uint64, i int) uint64 {
	x := base + 0x9E3779B97F4A7C15*uint64(i+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// legCounts are the counts every leg records. The record types embed it,
// so its keys sit flat beside each leg's own in the -chaosjson output.
type legCounts struct {
	Seed           string `json:"seed"`
	Swaps          int    `json:"swaps"`
	ClassifyOK     int    `json:"classify_ok"`
	ClassifyShed   int    `json:"classify_shed"`
	InjectedErrs   int    `json:"injected_errs"`
	InjectedDelays int    `json:"injected_delays"`
}

// chaosScheduleRecord is one schedule's outcome in the -chaosjson output.
type chaosScheduleRecord struct {
	legCounts
	Digest          string `json:"digest"`
	AckedBatches    int    `json:"acked_batches"`
	RejectedBatches int    `json:"rejected_batches"`
	FoldedRecords   int    `json:"folded_records"`
	ExportBatches   int    `json:"export_batches"`
	ExportRetries   int    `json:"export_retries"`
}

// swapStormRecord is the refresh swap-storm leg's outcome in the
// -chaosjson output.
type swapStormRecord struct {
	legCounts
	Refreshes     int `json:"refreshes"`
	Escalations   int `json:"escalations"`
	RevisionsSeen int `json:"revisions_seen"`
}

// shardStormRecord is the sharded chaos leg's outcome in the -chaosjson
// output: the soak kills one shard and one replica mid-flight and holds
// the acked-batch and per-revision parity invariants throughout.
type shardStormRecord struct {
	legCounts
	Shards        int    `json:"shards"`
	Replicas      int    `json:"replicas"`
	RingDigest    string `json:"ring_digest"`
	AckedBatches  int    `json:"acked_batches"`
	RejectedBatch int    `json:"rejected_batches"`
	FoldedRecords int    `json:"folded_records"`
	Failovers     int64  `json:"failovers"`
	RevisionsSeen int    `json:"revisions_seen"`
}

// chaosRecord is the -chaosjson schema.
type chaosRecord struct {
	Seed       uint64                `json:"seed"`
	Scale      float64               `json:"scale"`
	Trees      int                   `json:"trees"`
	PlanDigest string                `json:"plan_digest"`
	RevisionA  uint64                `json:"revision_a"`
	RevisionB  uint64                `json:"revision_b"`
	Schedules  []chaosScheduleRecord `json:"schedules"`
	SwapStorm  swapStormRecord       `json:"swap_storm"`
	ShardStorm shardStormRecord      `json:"shard_storm"`
}

// chaosEnv is what every leg shares: the fault rules, the snapshot pair
// with their offline results, and the classify request.
type chaosEnv struct {
	rules map[fault.Site]fault.Rule
	snaps [2]*serve.ModelSnapshot
	res   [2]*analysis.Result
	body  []byte
	ids   []uint32
}

// runChaos trains two model snapshots (a "retrain" pair over the same
// synthetic population) and soaks them under schedules seeded fault plans,
// then runs the refresher swap storm (stormSwaps consecutive
// refresh-driven snapshot publishes raced against classify load) and the
// shard storm (a stormShards-shard tier losing a shard and a replica
// mid-flight), all under the same fault rules, each classify response
// audited against the offline result of whichever revision it echoes.
func runChaos(cfg analysis.Config, schedules int, outPath string) error {
	if schedules <= 0 {
		schedules = 3
	}
	rules := chaosRules()
	var err error
	plan := uint64(0xcbf29ce484222325)
	for i := 0; i < schedules; i++ {
		d := fault.Digest(scheduleSeed(cfg.Seed, i), rules, 512)
		plan = (plan ^ d) * 0x100000001b3
	}
	fmt.Printf("icnbench: chaos plan digest %#016x (seed=%d schedules=%d)\n", plan, cfg.Seed, schedules)

	fmt.Fprintf(os.Stderr, "icnbench: training snapshot pair (seed=%d scale=%.2f trees=%d/%d)...\n",
		cfg.Seed, cfg.Scale, cfg.ForestTrees, cfg.ForestTrees+2)
	synthCfg := synth.Config{Seed: cfg.Seed, Scale: cfg.Scale, OutdoorCount: 120}
	env := &chaosEnv{rules: rules}
	for i := range env.res {
		c := cfg
		c.ForestTrees += 2 * i
		if env.res[i], err = analysis.RunOnDataset(synth.Generate(synthCfg), c); err != nil {
			return err
		}
		if env.snaps[i], err = serve.NewModelSnapshot(env.res[i]); err != nil {
			return err
		}
	}
	snapA, snapB := env.snaps[0], env.snaps[1]
	if snapA.Revision == snapB.Revision {
		return fmt.Errorf("icnbench: chaos needs two distinct model revisions, both fingerprint to %#x", snapA.Revision)
	}
	if env.body, env.ids, err = classifyBody(env.res[0]); err != nil {
		return err
	}

	rec := chaosRecord{
		Seed: cfg.Seed, Scale: cfg.Scale, Trees: cfg.ForestTrees,
		PlanDigest: fmt.Sprintf("%#016x", plan),
		RevisionA:  snapA.Revision, RevisionB: snapB.Revision,
		Schedules: make([]chaosScheduleRecord, schedules),
	}
	// Leg i runs on scheduleSeed(seed, i): schedules, then the two storms.
	type leg struct {
		name string
		out  any
		run  func(seed uint64) error
	}
	var legs []leg
	for i := range rec.Schedules {
		out := &rec.Schedules[i]
		legs = append(legs, leg{fmt.Sprintf("schedule %d", i), out, func(seed uint64) error { return env.schedule(seed, out) }})
	}
	legs = append(legs,
		leg{"swap storm", &rec.SwapStorm, func(seed uint64) error { return env.swapStorm(seed, &rec.SwapStorm) }},
		leg{"shard storm", &rec.ShardStorm, func(seed uint64) error { return env.shardStorm(seed, &rec.ShardStorm) }})

	reproduce := fmt.Sprintf("go run ./cmd/icnbench -chaos -seed %d -chaosschedules %d -scale %g -trees %d",
		cfg.Seed, schedules, cfg.Scale, cfg.ForestTrees)
	for i, l := range legs {
		seed := scheduleSeed(cfg.Seed, i)
		if err := l.run(seed); err != nil {
			fmt.Printf("icnbench: chaos %s FAILED (seed %#016x): %v\n", l.name, seed, err)
			fmt.Printf("icnbench: reproduce with: %s\n", reproduce)
			return fmt.Errorf("icnbench: chaos %s: %w", l.name, err)
		}
		summary, _ := json.Marshal(l.out) // flat ints and strings: cannot fail
		fmt.Printf("icnbench: chaos %s OK — %s\n", l.name, summary)
	}
	fmt.Printf("icnbench: chaos PASS — %d schedules, the swap storm and the shard storm held every invariant; reproduce with: %s\n",
		schedules, reproduce)

	if outPath != "" {
		if err := writeJSON(outPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "icnbench: wrote chaos record to %s\n", outPath)
	}
	return nil
}

// classifyBody classifies the first (up to) 32 outdoor antennas as ids 0..n-1.
func classifyBody(res *analysis.Result) ([]byte, []uint32, error) {
	outdoor := res.Dataset.OutdoorTraffic
	var req serve.ClassifyRequest
	var ids []uint32
	for i := 0; i < min(32, outdoor.Rows()); i++ {
		req.Antennas = append(req.Antennas, serve.AntennaVector{ID: uint32(i), Traffic: outdoor.Row(i)})
		ids = append(ids, uint32(i))
	}
	body, err := json.Marshal(req)
	return body, ids, err
}

// errCollector keeps the first failure of a leg's concurrent parts.
type errCollector struct {
	mu    sync.Mutex
	first error
}

func (e *errCollector) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.first == nil {
		e.first = err
	}
}

func (e *errCollector) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.first
}

// soak is the harness every leg runs in. The storms' classify clients run
// on clients until end closes stop.
type soak struct {
	errCollector
	ctx     context.Context
	inj     *fault.Injector
	counts  *legCounts
	audit   *classifyAuditor
	ingest  *ingestPoster
	stop    chan struct{}
	clients pipe.Tasks
}

// newSoak starts a leg that records into c: its injector and its outer
// deadline (invariant 3: nothing in the leg may hang past it).
func (e *chaosEnv) newSoak(seed uint64, c *legCounts, deadline time.Duration) (*soak, context.CancelFunc) {
	c.Seed = fmt.Sprintf("%#016x", seed)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	s := &soak{ctx: ctx, inj: fault.New(seed, e.rules), counts: c, stop: make(chan struct{})}
	s.audit = &classifyAuditor{body: e.body, ids: e.ids, errs: &s.errCollector, revs: map[uint64]bool{}}
	return s, cancel
}

// aim points the ingest poster and the classify auditor at url.
func (s *soak) aim(url string, labels func(rev uint64) ([]int, bool)) {
	s.ingest = &ingestPoster{url: url}
	s.audit.url, s.audit.labels = url, labels
}

// end stops the clients and drains within 30 s: an overrun is a possible
// deadlock (invariant 3). Then the drained sinks must hold exactly the
// acked records, no more, no fewer (invariant 1). It returns that count.
func (s *soak) end(shutdown func(context.Context) error, folded func() int) int {
	close(s.stop)
	s.clients.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		s.fail(fmt.Errorf("shutdown under fault (possible deadlock): %w", err))
	}
	n := folded()
	if n != s.ingest.records {
		s.fail(fmt.Errorf("acked-batch loss: sinks hold %d records, want %d (%d acked batches)",
			n, s.ingest.records, s.ingest.acked))
	}
	s.counts.ClassifyOK, s.counts.ClassifyShed = s.audit.ok, s.audit.shed
	for _, st := range s.inj.Stats() {
		s.counts.InjectedErrs += int(st.Errs)
		s.counts.InjectedDelays += int(st.Delays)
	}
	return n
}

// postStorm posts storm batch iter; one that never lands fails the leg.
func (s *soak) postStorm(iter, volumes int, antenna func(j int) int) bool {
	if err := s.ingest.post(s.ctx, probeRecords(iter, stormBatch, volumes, antenna)); err != nil {
		s.fail(fmt.Errorf("ingest %d: %w", iter, err))
		return false
	}
	return true
}

// refreshUntil runs ingest → fold → refresh cycles until want swaps land,
// failing the leg after maxIters. It waits while pending, as an ack is a
// durability promise, not a visibility one. It returns every outcome.
func (s *soak) refreshUntil(want, maxIters int, ingest func(iter int) bool, pending func() bool,
	refreshOnce func(context.Context) (serve.RefreshOutcome, error),
) []serve.RefreshOutcome {
	var outs []serve.RefreshOutcome
	for iter, swaps := 0, 0; swaps < want && s.err() == nil; iter++ {
		if iter >= maxIters {
			s.fail(fmt.Errorf("only %d/%d swaps after %d refresh attempts", swaps, want, iter))
			break
		}
		if !ingest(iter) {
			break
		}
		for pending() && s.ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(s.ctx, 2*time.Minute)
		ro, err := refreshOnce(ctx)
		cancel()
		if err != nil {
			s.fail(fmt.Errorf("refresh %d: %w", iter, err))
			break
		}
		outs = append(outs, ro)
		if ro.Swapped {
			swaps++
		}
	}
	return outs
}

// classifyAuditor is the soak's one classify client and its one check of
// invariant 2. 503 is sanctioned shedding (injected latency past the
// deadline, or a replica dying under the proxy). A 200 must answer the
// requested antennas in request order with the offline labels of the
// revision it echoes in both model_revision and X-Icn-Revision.
type classifyAuditor struct {
	url    string
	body   []byte
	ids    []uint32
	labels func(rev uint64) ([]int, bool)
	errs   *errCollector

	// mu guards the counts below while clients run.
	mu       sync.Mutex
	ok, shed int
	revs     map[uint64]bool
}

// resultLabels adapts a ResultFor registry to the auditor's label lookup.
func resultLabels(resultFor func(uint64) (*analysis.Result, bool)) func(uint64) ([]int, bool) {
	return func(rev uint64) ([]int, bool) {
		res, ok := resultFor(rev)
		if !ok {
			return nil, false
		}
		return res.OutdoorLabels, true
	}
}

// run starts clients classify clients on tasks; each stops after
// requests requests (if > 0), when stop closes, or at its first failure.
func (a *classifyAuditor) run(tasks *pipe.Tasks, clients, requests int, stop <-chan struct{}) {
	for c := 0; c < clients; c++ {
		tasks.Go(func() {
			for r := 0; requests <= 0 || r < requests; r++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := a.once(); err != nil {
					a.errs.fail(fmt.Errorf("classify client %d: %w", c, err))
					return
				}
			}
		})
	}
}

// once posts the classify body once and audits the answer.
func (a *classifyAuditor) once() error {
	resp, err := soakClient.Post(a.url+"/v1/classify", "application/json", bytes.NewReader(a.body))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) // a short read fails the decode below
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		a.mu.Lock()
		a.shed++
		a.mu.Unlock()
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return err
	}
	rev := cr.ModelRevision
	if header := resp.Header.Get(serve.RevisionHeader); header != strconv.FormatUint(rev, 10) {
		return fmt.Errorf("%s header %q disagrees with model_revision %d", serve.RevisionHeader, header, rev)
	}
	want, ok := a.labels(rev)
	if !ok {
		return fmt.Errorf("response echoes revision %016x with no registered offline result", rev)
	}
	if len(cr.Results) != len(a.ids) {
		return fmt.Errorf("%d results under revision %016x for %d requested antennas", len(cr.Results), rev, len(a.ids))
	}
	for i, v := range cr.Results {
		if int(v.ID) >= len(want) {
			return fmt.Errorf("result %d names antenna %d, outside revision %016x's %d offline labels", i, v.ID, rev, len(want))
		}
		if v.ID != a.ids[i] {
			return fmt.Errorf("result %d names antenna %d, the request sent antenna %d there", i, v.ID, a.ids[i])
		}
		if v.Cluster != want[v.ID] {
			return fmt.Errorf("antenna %d served cluster %d under revision %016x, offline labels say %d",
				v.ID, v.Cluster, rev, want[v.ID])
		}
	}
	a.mu.Lock()
	a.ok++
	a.revs[rev] = true
	a.mu.Unlock()
	return nil
}

// ingestPoster posts probe batches to /v1/ingest and counts the acks
// invariant 1 is checked against. 429 and 503 are sanctioned backpressure:
// each is counted as a rejection and the batch is re-sent after a pause.
type ingestPoster struct {
	url      string
	acked    int // batches
	rejected int // rejections, retried ones included
	records  int // records in acked batches
}

// post encodes recs in the probe wire format and sends them until they
// are acked, within ingestAttempts posts.
func (p *ingestPoster) post(ctx context.Context, recs []probe.Record) error {
	var batch bytes.Buffer
	pw := probe.NewWriter(&batch)
	for _, r := range recs {
		if err := pw.Write(r); err != nil {
			return err
		}
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	for attempt := 0; attempt < ingestAttempts && ctx.Err() == nil; attempt++ {
		resp, err := soakClient.Post(p.url+"/v1/ingest", "application/octet-stream", bytes.NewReader(batch.Bytes()))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			p.acked++
			p.records += len(recs)
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			p.rejected++
			time.Sleep(2 * time.Millisecond)
		default:
			return fmt.Errorf("unexpected status %d", resp.StatusCode)
		}
	}
	return errors.New("batch never acked")
}

// probeRecords builds a batch on real catalog domains, so a storm's fold
// lands in the classified traffic matrix for the refresh; volumes growing
// with iter keep successive folds perturbing the Eq. 5 shares.
func probeRecords(iter, n, volumes int, antenna func(j int) int) []probe.Record {
	recs := make([]probe.Record, n)
	for j := range recs {
		recs[j] = probe.Record{
			Hour: uint32(j % 24), AntennaID: uint32(antenna(j)),
			Protocol: probe.TCP, ServerPort: 443,
			ServerName: probe.DomainOf((iter + j) % services.M),
			DownBytes:  (1 + uint64(iter%volumes)) << 20, UpBytes: 1 << 16,
		}
	}
	return recs
}

// schedule executes one seeded fault schedule and checks the three soak
// invariants. All legs share one injector, so the schedule exercises
// cross-seam interleavings while each seam's decision stream stays a pure
// function of the seed.
func (e *chaosEnv) schedule(seed uint64, out *chaosScheduleRecord) error {
	const (
		ingestBatches, ingestPerBatch = 40, 25
		swapCount                     = 8
		exportBatches, exportPerBatch = 10, 30
		exportAttempts                = 12
	)
	out.Digest = fmt.Sprintf("%#016x", fault.Digest(seed, e.rules, 512))
	ingestRecs := probeRecords(0, ingestPerBatch, 1, func(int) int { return 0 })
	s, cancel := e.newSoak(seed, &out.legCounts, 90*time.Second)
	defer cancel()
	col, err := collect.ListenContext(s.ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	var colTasks pipe.Tasks
	colTasks.Go(func() { _ = col.Serve(s.ctx) })
	defer func() { cancel(); colTasks.Wait() }()
	srv, err := serve.New(e.snaps[0], nil, serve.Config{QueueDepth: 16, Faults: s.inj})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	url := "http://" + srv.Addr().String()
	// Offline ground truth per revision: invariant 2 checks every classify
	// response against the labels of the model revision it echoes.
	s.aim(url, func(rev uint64) ([]int, bool) {
		for i, snap := range e.snaps {
			if snap.Revision == rev {
				return e.res[i].OutdoorLabels, true
			}
		}
		return nil, false
	})

	var legs pipe.Tasks
	// Leg 1: ingest pressure against a small queue. 202s are a durability
	// promise; 429/503 is sanctioned degradation under the injected fold
	// delays, and the batch is re-sent.
	legs.Go(func() {
		for b := 0; b < ingestBatches; b++ {
			if err := s.ingest.post(s.ctx, ingestRecs); err != nil {
				s.fail(fmt.Errorf("ingest leg: %w", err))
				return
			}
		}
	})

	// Leg 2: classify parity under the racing swaps (invariant 2).
	s.audit.run(&legs, 3, 12, nil)

	// Leg 3: model swaps racing the classify load; each swap purges the
	// verdict LRU, and the model revision in the cache key closes the
	// purge/insert race.
	legs.Go(func() {
		for sw := 0; sw < swapCount; sw++ {
			if err := srv.SwapSnapshot(e.snaps[1-sw%2]); err != nil { // B, A, B, ...
				s.fail(fmt.Errorf("swap leg: %w", err))
				return
			}
			out.Swaps++
			time.Sleep(5 * time.Millisecond)
		}
	})

	// Leg 4: exporter durability through the faulted dialer. Dial refusals
	// back off and retry inside Export; a mid-stream reset fails the whole
	// attempt and the batch is re-sent — at-least-once, never lost.
	legs.Go(func() {
		for b := 0; b < exportBatches; b++ {
			// Each batch is tagged with its index as the antenna, so partial
			// deliveries from retried attempts stay distinguishable.
			recs := probeRecords(b, exportPerBatch, 1, func(int) int { return b })
			for attempt := 0; ; attempt++ {
				if attempt == exportAttempts {
					s.fail(fmt.Errorf("export leg: batch %d lost after %d attempts", b, exportAttempts))
					return
				}
				err := collect.Export(s.ctx, col.Addr().String(), recs,
					collect.WithDialRetry(6, time.Millisecond),
					collect.WithRetrySeed(seed+uint64(b)),
					collect.WithDialContext(s.inj.Dialer(nil)))
				if err == nil {
					break
				}
				out.ExportRetries++
				if s.ctx.Err() != nil {
					s.fail(fmt.Errorf("export leg: %w", s.ctx.Err()))
					return
				}
			}
			out.ExportBatches++
		}
	})
	legs.Wait()

	// Fault counters must be visible on /metrics while the server is live.
	if resp, err := http.Get(url + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "icn_fault_serve_fold_delays") {
			s.fail(fmt.Errorf("metrics: no icn_fault_serve_fold_delays counter exported"))
		}
	} else {
		s.fail(fmt.Errorf("metrics: %w", err))
	}

	out.FoldedRecords = s.end(srv.Shutdown, func() int { return srv.Ingest().FoldedRecords() })
	out.AckedBatches, out.RejectedBatches = s.ingest.acked, s.ingest.rejected
	cancel() // stops the collector
	colTasks.Wait()
	// Exporter at-least-once: every delivered batch is fully present.
	if got, want := col.Sink().Snapshot().Records, out.ExportBatches*exportPerBatch; got < want {
		s.fail(fmt.Errorf("export loss: collector holds %d records, want >= %d", got, want))
	}
	return s.err()
}

// swapStorm closes the ingest → refresh → swap loop under fire: a
// Refresher drives at least stormSwaps consecutive snapshot publishes —
// each seeded by fresh aggregates landing through the faulted fold path —
// while classify clients hammer the server throughout. Every 200 is
// audited against the offline result of the exact revision it echoes
// (resolved through the refresher's revision registry), so the
// served↔offline consistency invariant holds across the entire swap
// history, not just a retrain pair.
func (e *chaosEnv) swapStorm(seed uint64, out *swapStormRecord) error {
	s, cancel := e.newSoak(seed, &out.legCounts, 5*time.Minute)
	defer cancel()
	srv, err := serve.New(e.snaps[0], nil, serve.Config{QueueDepth: 64, Faults: s.inj})
	if err != nil {
		return err
	}
	// Interval: time.Hour — the storm paces refreshes by swap count, not
	// wall time, so RefreshOnce is driven manually. History must outlast
	// the storm: a response may echo any revision ever published.
	ref, err := serve.NewRefresher(srv, e.res[0], serve.RefreshConfig{
		Interval: time.Hour,
		History:  stormSwaps + 16,
	})
	if err != nil {
		return err
	}
	// Stop waits for the last revision's audit job.
	defer ref.Stop()
	if err := srv.Start(); err != nil {
		return err
	}
	s.aim("http://"+srv.Addr().String(), resultLabels(ref.ResultFor))

	// Classify clients run for the storm's whole lifetime so every swap
	// races in-flight requests.
	s.audit.run(&s.clients, 3, 0, s.stop)

	// Storm loop: ingest a fresh batch over HTTP (through the faulted fold
	// path), wait for it to clear the queue, refresh, count the swap.
	// Rotating antennas and growing volumes keep every fold perturbing the
	// Eq. 5 shares, so each refresh mints a fresh fingerprint; periodic
	// wide bursts push reassignment toward the escalation path.
	nIndoor := e.res[0].Dataset.Traffic.Rows()
	ingest := func(iter int) bool {
		spread := 1
		if iter%7 == 6 {
			spread = 17 // burst across distant antennas
		}
		return s.postStorm(iter, 5, func(j int) int { return (iter*13 + j*spread) % nIndoor })
	}
	pending := func() bool { return srv.Ingest().FoldedRecords() < s.ingest.records }
	for _, ro := range s.refreshUntil(stormSwaps, 3*stormSwaps+10, ingest, pending, ref.RefreshOnce) {
		out.Refreshes++
		if ro.Stats.Escalated {
			out.Escalations++
		}
		if ro.Swapped {
			out.Swaps++
		}
	}

	// The drain itself stays bounded even with the storm's history behind
	// it, and every acked batch is folded.
	s.end(srv.Shutdown, func() int { return srv.Ingest().FoldedRecords() })
	out.RevisionsSeen = len(s.audit.revs)
	return s.err()
}

// shardStorm soaks the sharded tier under the same seeded fault rules:
// concurrent ingest and classify load through the router while one shard
// and one replica are killed mid-flight and a refresh fans a new revision
// out to the survivors. Invariants: every 202-acked batch is folded into
// some shard sink by the drain (kills included), every classify 200
// matches the offline labels of the revision it echoes, and nothing hangs
// past the hard deadline.
func (e *chaosEnv) shardStorm(seed uint64, out *shardStormRecord) error {
	out.Shards, out.Replicas = stormShards, 2
	s, cancel := e.newSoak(seed, &out.legCounts, 3*time.Minute)
	defer cancel()
	rt, err := shard.NewRouter(e.snaps[0], e.res[0], shard.Config{
		Shards: stormShards, Replicas: out.Replicas,
		RingSeed: seed, QueueDepth: 8, Faults: s.inj,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	out.RingDigest = fmt.Sprintf("%016x", rt.Ring().Digest())
	s.aim(rt.URL(), resultLabels(rt.ResultFor))

	// Classify clients run for the storm's whole lifetime so the shard and
	// replica kills race in-flight proxied requests.
	s.audit.run(&s.clients, 2, 0, s.stop)

	// Ingest through the router with retry-on-429: each retry
	// re-partitions against the updated ring, which is how acked batches
	// survive the shard kill.
	nIndoor := e.res[0].Dataset.Traffic.Rows()
	ingest := func(iter int) bool {
		return s.postStorm(iter, 4, func(j int) int { return (iter*19 + j) % nIndoor })
	}
	// Mid-soak kills, between two phases of ingest: one shard (its queue
	// drains every acked batch before the kill returns) and one replica
	// (proxied classifies fail over).
	const batchesPerPhase = 15
	for iter := 0; iter < 2*batchesPerPhase && s.err() == nil; iter++ {
		if iter == batchesPerPhase {
			kctx, kcancel := context.WithTimeout(s.ctx, 30*time.Second)
			err := rt.KillShard(stormShards - 1)
			if err == nil {
				err = rt.KillReplica(kctx, 1)
			}
			kcancel()
			if err != nil {
				s.fail(fmt.Errorf("mid-soak kill: %w", err))
				break
			}
		}
		if !ingest(iter) {
			break
		}
	}

	// Refresh under fire: fold the merged cross-shard totals and publish at
	// least one new revision through the fan-out (replica 0 is the only
	// survivor here, but the protocol — register, swap, fan out — is the
	// same one the classify clients audit per echoed revision).
	pending := func() bool { return rt.Sinks().PendingRecords() != 0 }
	for _, ro := range s.refreshUntil(1, 8, func(iter int) bool { return ingest(2*batchesPerPhase + iter) }, pending, rt.RefreshOnce) {
		if ro.Swapped {
			out.Swaps++
		}
	}

	// Bounded drain, then the acked-batch audit across every shard sink —
	// the killed shard's drained aggregate included.
	out.FoldedRecords = s.end(rt.Shutdown, func() int { return rt.Stats().FoldedRecords })
	out.RevisionsSeen = len(s.audit.revs)
	out.AckedBatches, out.RejectedBatch = s.ingest.acked, s.ingest.rejected
	out.Failovers = rt.Stats().ClassifyFailovers
	return s.err()
}
