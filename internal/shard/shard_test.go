package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/rca"
	"repro/internal/serve"
	"repro/internal/synth"
)

// --- fixtures ---------------------------------------------------------------

// tinySnapshot builds a minimal servable model without the full pipeline:
// enough for ingest-path tests that never classify.
func tinySnapshot(t testing.TB) *serve.ModelSnapshot {
	t.Helper()
	rows := [][]float64{
		{100, 5, 5}, {90, 10, 4}, {110, 2, 8}, {95, 7, 3},
		{5, 100, 5}, {8, 95, 2}, {4, 110, 9}, {6, 90, 7},
	}
	traffic, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rca.NewOutdoorReference(traffic)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	f := forest.Train(rca.RSCA(traffic), labels, 2, forest.Config{Trees: 7, Seed: 3})
	return &serve.ModelSnapshot{Ref: ref, Forest: f, K: 2, Services: 3, Revision: 0xf1f2}
}

var (
	goldenOnce sync.Once
	goldenRes  *analysis.Result
	goldenErr  error
)

// goldenResult trains the small parity fixture once per test binary.
func goldenResult(t testing.TB) *analysis.Result {
	t.Helper()
	goldenOnce.Do(func() {
		ds := synth.Generate(synth.Config{Seed: 11, Scale: 0.05, OutdoorCount: 120})
		goldenRes, goldenErr = analysis.RunOnDataset(ds, analysis.Config{
			Seed: 11, Scale: 0.05, ForestTrees: 15,
		})
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenRes
}

func startRouter(t testing.TB, snap *serve.ModelSnapshot, base *analysis.Result, cfg Config) *Router {
	t.Helper()
	rt, err := NewRouter(snap, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return rt
}

func probeStream(t testing.TB, recs []probe.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := probe.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ingestRecords(n, antennas int) []probe.Record {
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = probe.Record{
			Hour: uint32(i % 24), AntennaID: uint32(i % antennas), Protocol: probe.TCP,
			ServerPort: 443, ServerName: probe.DomainOf(i % 7),
			DownBytes: 4 << 20, UpBytes: 1 << 18,
		}
	}
	return recs
}

func postStream(t *testing.T, url string, stream []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// --- ingest durability ------------------------------------------------------

// TestShardedIngestAckedEqualsFolded is the sharded acked-batch invariant:
// after a drained shutdown, every record acked with 202 is folded into
// some shard sink, and the merged matrix carries all of it.
func TestShardedIngestAckedEqualsFolded(t *testing.T) {
	rt := startRouter(t, tinySnapshot(t), nil, Config{Shards: 3, Replicas: 1, RingSeed: 5})
	const batches, perBatch, antennas = 20, 50, 64
	for b := 0; b < batches; b++ {
		recs := ingestRecords(perBatch, antennas)
		for i := range recs {
			recs[i].AntennaID = uint32((b*perBatch + i) % antennas)
		}
		resp := postStream(t, rt.URL(), probeStream(t, recs))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", b, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.AckedRecords != batches*perBatch {
		t.Fatalf("acked %d records, want %d", st.AckedRecords, batches*perBatch)
	}
	if st.FoldedRecords != int(st.AckedRecords) {
		t.Fatalf("folded %d records, acked %d — acked-batch invariant broken", st.FoldedRecords, st.AckedRecords)
	}
	if st.PendingRecords != 0 {
		t.Fatalf("%d records still pending after shutdown", st.PendingRecords)
	}
	// The batches spread across every shard (64 antennas over 3 shards).
	for _, ss := range st.Shards {
		if ss.FoldedRecords == 0 {
			t.Fatalf("shard %d folded nothing; partitioning is not spreading", ss.Shard)
		}
	}
}

// TestReplicaIngestFoldsIntoSharedTier posts batches straight to each
// replica's /v1/ingest, concurrently with the router's: every 202 must land
// in the router's tier, feed the next refresh, and survive a replica kill
// and the router's shutdown.
func TestReplicaIngestFoldsIntoSharedTier(t *testing.T) {
	res := goldenResult(t)
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	// Slow folds keep acked batches queued across the replica kill.
	inj := fault.New(4, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: 5 * time.Millisecond},
	})
	rt := startRouter(t, snap, res, Config{Shards: 2, Replicas: 2, RingSeed: 7, Faults: inj})
	indoor := res.Dataset.Traffic.Rows()
	const perBatch = 100
	batch := probeStream(t, ingestRecords(perBatch, indoor))
	var acked atomic.Int64
	post := func(url string) error {
		resp, err := http.Post(url+"/v1/ingest", "application/octet-stream", bytes.NewReader(batch))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("ingest to %s: status %d, want 202", url, resp.StatusCode)
		}
		acked.Add(perBatch)
		return nil
	}
	replicaURL := func(i int) string { return "http://" + rt.Replica(i).Addr().String() }
	var wg sync.WaitGroup
	for _, url := range []string{replicaURL(0), replicaURL(1), rt.URL()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 3; b++ {
				if err := post(url); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.Sinks().PendingRecords() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d records still pending", rt.Sinks().PendingRecords())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := rt.Sinks().FoldedRecords(), int(acked.Load()); got != want {
		t.Fatalf("router tier folded %d records, router and replicas acked %d", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := rt.RefreshOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped || !out.Swapped {
		t.Fatalf("refresh after replica-direct ingest: skipped %v, swapped %v", out.Skipped, out.Swapped)
	}

	// Batches replica 1 acked just before its kill still fold, and the
	// survivors keep ingesting: killing a replica leaves the tier open.
	for b := 0; b < 3; b++ {
		if err := post(replicaURL(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.KillReplica(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{replicaURL(0), rt.URL()} {
		if err := post(url); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Sinks().FoldedRecords(), int(acked.Load()); got != want {
		t.Fatalf("after shutdown the tier folded %d records, %d were acked", got, want)
	}
	if p := rt.Sinks().PendingRecords(); p != 0 {
		t.Fatalf("%d records still pending after shutdown", p)
	}
}

// TestOfferAllOrNothing: when one target shard's queue is full, the whole
// batch is rejected — no sub-batch of a non-acked batch may land.
func TestOfferAllOrNothing(t *testing.T) {
	ring, err := NewRing(2, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Park the drain workers on huge injected delays so queues stay full.
	inj := fault.New(1, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: time.Hour},
	})
	s, err := serve.NewSinks(ring.Shards(), ring.Place, 1, fault.ShardFold, inj, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Find one key per shard.
	keyFor := func(shard int) []probe.Record {
		for k := uint32(0); ; k++ {
			if ring.Place(k) == shard {
				return []probe.Record{{AntennaID: k, ServerName: "x", DownBytes: 1}}
			}
		}
	}
	// Fill shard 0's queue (depth 1) plus the in-flight slot its worker
	// sleeps on. A rejection alone does not prove that: the worker may not
	// have taken the first batch yet, and would free the queue slot right
	// after. So offer until both one-record batches are held.
	landed := 0
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats()[0].QueuedRecords < 2 {
		if s.Offer(map[int][]probe.Record{0: keyFor(0)}) {
			landed++
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 queue never filled")
		}
	}
	if landed != 2 {
		t.Fatalf("%d offers landed filling a depth-1 queue and its in-flight slot, want 2", landed)
	}
	before := s.Stats()
	// A batch spanning both shards must be rejected whole: shard 1 has
	// room, but shard 0 does not.
	if s.Offer(map[int][]probe.Record{0: keyFor(0), 1: keyFor(1)}) {
		t.Fatal("offer succeeded with a full target shard")
	}
	after := s.Stats()
	if after[1].QueuedRecords != before[1].QueuedRecords {
		t.Fatalf("shard 1 queue changed (%d → %d) on a rejected batch — partial enqueue",
			before[1].QueuedRecords, after[1].QueuedRecords)
	}
}

// TestKillShardDrainsAckedBatches: removing a shard from the ring reroutes
// its keys, Kill folds everything already acked into the dying shard's
// sink before returning, and the drained aggregate stays in the merged
// totals.
func TestKillShardDrainsAckedBatches(t *testing.T) {
	ring, err := NewRing(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Slow folds so the kill races a non-empty queue.
	inj := fault.New(2, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: 20 * time.Millisecond},
	})
	s, err := serve.NewSinks(ring.Shards(), ring.Place, 64, fault.ShardFold, inj, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	acked := 0
	for b := 0; b < 12; b++ {
		batch := ingestRecords(25, 80)
		subs := s.Partition(batch)
		if !s.Offer(subs) {
			t.Fatalf("offer %d rejected with empty-ish queues", b)
		}
		acked += len(batch)
	}
	const victim = 1
	if err := ring.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Kill must not return with the victim's acked records unfolded.
	for _, ss := range s.Stats() {
		if ss.Shard == victim {
			if !ss.Dead {
				t.Fatal("victim not marked dead")
			}
			if ss.QueuedRecords != 0 {
				t.Fatalf("victim still holds %d unfolded records after Kill", ss.QueuedRecords)
			}
		}
	}
	// Post-kill traffic never lands on the victim.
	subs := s.Partition(ingestRecords(200, 80))
	if _, hit := subs[victim]; hit {
		t.Fatal("ring still places keys on the killed shard")
	}
	if !s.Offer(subs) {
		t.Fatal("survivors rejected a small batch")
	}
	acked += 200
	// Everything acked — victim's share included — eventually folds.
	deadline := time.Now().Add(5 * time.Second)
	for s.PendingRecords() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d records still pending", s.PendingRecords())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.FoldedRecords(); got != acked {
		t.Fatalf("folded %d, acked %d", got, acked)
	}
	if killErr := s.Kill(victim); killErr == nil {
		t.Fatal("double-kill succeeded")
	}
}

// --- served ↔ offline parity and fan-out ------------------------------------

// TestRouterParityFanoutAndFailover is the golden sharded test: classify
// through the router matches the offline labels; a refresh fans one
// revision out to every live replica and registers it for parity
// resolution; killed replicas fail over without wrong answers.
func TestRouterParityFanoutAndFailover(t *testing.T) {
	res := goldenResult(t)
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	rt := startRouter(t, snap, res, Config{Shards: 3, Replicas: 3, RingSeed: 11})

	outdoor := res.Dataset.OutdoorTraffic
	classifyAll := func() (uint64, []int) {
		t.Helper()
		req := serve.ClassifyRequest{}
		for i := 0; i < outdoor.Rows(); i++ {
			req.Antennas = append(req.Antennas, serve.AntennaVector{
				ID: uint32(i), Traffic: outdoor.Row(i),
			})
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Post(rt.URL()+"/v1/classify", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(httpResp.Body)
			t.Fatalf("classify status %d: %s", httpResp.StatusCode, body)
		}
		var resp serve.ClassifyResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(resp.Results))
		for i, v := range resp.Results {
			got[i] = v.Cluster
		}
		return resp.ModelRevision, got
	}

	assertParity := func(rev uint64, got []int) {
		t.Helper()
		offline, ok := rt.ResultFor(rev)
		if !ok {
			t.Fatalf("served revision %016x not resolvable to an offline result", rev)
		}
		want := offline.OutdoorLabels
		if len(got) != len(want) {
			t.Fatalf("classified %d antennas, offline has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("antenna %d: served cluster %d, offline %d (revision %016x)", i, got[i], want[i], rev)
			}
		}
	}

	// Base revision parity through the proxy.
	rev, got := classifyAll()
	if rev != snap.Revision {
		t.Fatalf("served revision %016x, want base %016x", rev, snap.Revision)
	}
	assertParity(rev, got)

	// Ingest fresh traffic and refresh: the new revision must be served by
	// every live replica (fan-out), and parity must hold against the
	// retrained offline result per the echoed revision.
	indoor := res.Dataset.Traffic.Rows()
	for b := 0; b < 6; b++ {
		recs := ingestRecords(100, indoor)
		resp := postStream(t, rt.URL(), probeStream(t, recs))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	// Wait for the queues to fold so the refresh sees the new aggregates.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Sinks().PendingRecords() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queues never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := rt.RefreshOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped {
		t.Fatal("refresh skipped despite fresh aggregates")
	}
	for i := 0; i < 3; i++ {
		if got := rt.Replica(i).Snapshot().Revision; got != out.Revision {
			t.Fatalf("replica %d serves %016x, refresh published %016x — fan-out broken", i, got, out.Revision)
		}
	}
	rev2, got2 := classifyAll()
	if rev2 != out.Revision {
		t.Fatalf("served revision %016x, want refreshed %016x", rev2, out.Revision)
	}
	assertParity(rev2, got2)

	// Kill a replica (and the refresh primary as a second casualty):
	// proxied classifies fail over and stay correct.
	if err := rt.KillReplica(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := rt.KillReplica(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rev3, got3 := classifyAll()
		assertParity(rev3, got3)
	}
	if err := rt.KillReplica(ctx, 1); err == nil {
		t.Fatal("killed the last live replica")
	}

	// Kill a shard mid-life: ingest keeps flowing to survivors.
	if err := rt.KillShard(0); err != nil {
		t.Fatal(err)
	}
	resp := postStream(t, rt.URL(), probeStream(t, ingestRecords(50, indoor)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-shard-kill ingest status %d", resp.StatusCode)
	}
	st := rt.Stats()
	if st.Ring.Alive != 2 {
		t.Fatalf("ring alive %d, want 2", st.Ring.Alive)
	}
	// Exactly the kills that happened: two replicas and one shard. The
	// refused kill of the last replica is not counted.
	if got := rt.Metrics().Counter("shard.replica.kills"); got != 2 {
		t.Errorf("shard.replica.kills = %d, want 2", got)
	}
	if got := rt.Metrics().Counter("shard.kills"); got != 1 {
		t.Errorf("shard.kills = %d, want 1", got)
	}
}

// TestShutdownAfterRefreshResolvesEveryRevision: RefreshOnce returns
// before its revision's outdoor verdicts are computed, so Router.Shutdown
// called right after it must wait for that audit. Once Shutdown returns,
// every revision the router fanned out resolves through ResultFor to a
// result with verdicts, and the last refresh's audit stage has landed.
func TestShutdownAfterRefreshResolvesEveryRevision(t *testing.T) {
	res := goldenResult(t)
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	rt := startRouter(t, snap, res, Config{Shards: 2, Replicas: 2, RingSeed: 5})
	indoor := res.Dataset.Traffic.Rows()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	revs := []uint64{snap.Revision}
	for i := 0; i < 3; i++ {
		rt.Sinks().Fold(ingestRecords(80*(i+1), indoor))
		out, err := rt.RefreshOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Swapped {
			t.Fatalf("refresh %d over new aggregates did not swap: %+v", i, out)
		}
		for r := 0; r < 2; r++ {
			if got := rt.Replica(r).Snapshot().Revision; got != out.Revision {
				t.Fatalf("replica %d serves %016x, refresh published %016x", r, got, out.Revision)
			}
		}
		revs = append(revs, out.Revision)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var audited bool
	for _, st := range rt.Refresher().Info().LastStages {
		if st.Name == "outdoor" && st.AfterPublish {
			audited = true
		}
	}
	if !audited {
		t.Fatal("Shutdown returned before the last revision's audit landed")
	}
	for _, rev := range revs {
		got, ok := rt.ResultFor(rev)
		if !ok || len(got.OutdoorLabels) != res.Dataset.OutdoorTraffic.Rows() {
			t.Fatalf("fanned-out revision %016x does not resolve to its verdicts after Shutdown", rev)
		}
	}
}

// TestRouterBackpressure429: full shard queues reject whole batches with
// 429 + Retry-After, and a retried batch eventually lands.
func TestRouterBackpressure429(t *testing.T) {
	inj := fault.New(9, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: 50 * time.Millisecond},
	})
	rt := startRouter(t, tinySnapshot(t), nil, Config{
		Shards: 2, Replicas: 1, QueueDepth: 1, RingSeed: 3, Faults: inj,
	})
	stream := probeStream(t, ingestRecords(40, 32))
	saw429 := false
	accepted := 0
	for i := 0; i < 60 && !saw429; i++ {
		resp := postStream(t, rt.URL(), stream)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatalf("no backpressure after %d accepted batches with depth-1 queues", accepted)
	}
	// Retry until it lands: clients recover from 429.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postStream(t, rt.URL(), stream)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retries never landed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
