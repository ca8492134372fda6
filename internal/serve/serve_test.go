package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/forecast"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/probe"
	"repro/internal/rca"
	"repro/internal/synth"
)

// --- fixtures ---------------------------------------------------------------

// tinySnapshot builds a minimal servable model without running the full
// pipeline: 8 antennas × 3 services, two well-separated demand profiles.
func tinySnapshot(t testing.TB) *ModelSnapshot {
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
	m := &ModelSnapshot{Ref: ref, Forest: f, K: 2, Services: 3}
	m.Revision = m.fingerprint()
	return m
}

func startServer(t *testing.T, snap *ModelSnapshot, cfg Config) *Server {
	t.Helper()
	s, err := New(snap, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func baseURL(s *Server) string { return "http://" + s.Addr().String() }

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
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

func ingestRecords(n int) []probe.Record {
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = probe.Record{
			Hour: uint32(i % 24), AntennaID: uint32(i % 4), Protocol: probe.TCP,
			ServerPort: 443, ServerName: "netflix.example",
			DownBytes: 2 << 20, UpBytes: 1 << 18,
		}
	}
	return recs
}

// --- golden parity with the offline pipeline --------------------------------

var (
	goldenOnce sync.Once
	goldenRes  *analysis.Result
	goldenErr  error
)

func goldenResult(t *testing.T) *analysis.Result {
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

// TestClassifyMatchesOfflinePredictAll is the golden serving test: the
// HTTP classify path over the outdoor population must reproduce, byte for
// byte, the offline Section 5.3 classification (forest.PredictAll over the
// Eq. 5 features — i.e. Result.OutdoorLabels).
func TestClassifyMatchesOfflinePredictAll(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})

	outdoor := res.Dataset.OutdoorTraffic
	var req ClassifyRequest
	for i := 0; i < outdoor.Rows(); i++ {
		req.Antennas = append(req.Antennas, AntennaVector{
			ID: uint32(i), Traffic: outdoor.Row(i),
		})
	}
	resp, body := postJSON(t, baseURL(s)+"/v1/classify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %d %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ModelRevision != snap.Revision {
		t.Fatalf("model revision %d, want %d", cr.ModelRevision, snap.Revision)
	}
	if len(cr.Results) != len(res.OutdoorLabels) {
		t.Fatalf("%d results for %d outdoor antennas", len(cr.Results), len(res.OutdoorLabels))
	}
	for i, v := range cr.Results {
		if v.Cluster != res.OutdoorLabels[i] {
			t.Fatalf("antenna %d: served cluster %d, offline PredictAll %d",
				i, v.Cluster, res.OutdoorLabels[i])
		}
	}
}

// TestSnapshotRevisionGolden pins the revisions of two fixed models to
// values recorded before the compact node layout, so the fingerprint is
// shown to hash the same bits as the 64-byte layout did — leaves as
// childless nodes followed by their distribution — not merely to be
// self-consistent.
func TestSnapshotRevisionGolden(t *testing.T) {
	snap, err := NewModelSnapshot(goldenResult(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Revision, uint64(0x5fedf10635cfa026); got != want {
		t.Errorf("golden pipeline revision %#x, want %#x", got, want)
	}
	if got, want := tinySnapshot(t).Revision, uint64(0xe7bf9d76c287dd17); got != want {
		t.Errorf("tiny snapshot revision %#x, want %#x", got, want)
	}
}

// TestSnapshotRevisionGoldenQuantile pins the revision of a model trained
// in the quantile-binning regime — every RSCA column has more than
// forest.MaxBins distinct values, as at the perfbench and production
// shapes — to a value recorded before the occupancy-bitmap split scan.
// The exact-regime goldens above cannot see a change to the quantile
// path.
func TestSnapshotRevisionGoldenQuantile(t *testing.T) {
	res, err := analysis.Run(analysis.Config{Seed: 1, Scale: 0.1, ForestTrees: 20})
	if err != nil {
		t.Fatal(err)
	}
	bins := forest.BinFeatures(res.RSCA)
	for j := 0; j < res.RSCA.Cols(); j++ {
		if bins.Feature(j).Exact {
			t.Fatalf("fixture column %d is in the exact-binning regime; grow the fixture", j)
		}
	}
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Revision, uint64(0x435221d33e4a9669); got != want {
		t.Errorf("quantile-regime revision %#x, want %#x", got, want)
	}
}

// --- ingest + shutdown drain -------------------------------------------------

// TestShutdownDrainsAckedBatches is the zero-acked-record-loss contract:
// every batch acked with 202 must be present in the aggregate after a
// graceful Shutdown, even when the queue is still deep at shutdown time.
func TestShutdownDrainsAckedBatches(t *testing.T) {
	// Slow the drain (via the fault layer) so Shutdown races real queued work.
	slowFolds := fault.New(1, map[fault.Site]fault.Rule{
		fault.Fold: {DelayProb: 1, Delay: 2 * time.Millisecond},
	})
	s, err := New(tinySnapshot(t), nil, Config{QueueDepth: 256, IngestWorkers: 1, Faults: slowFolds})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 40, 25
	stream := probeStream(t, ingestRecords(perBatch))
	acked := 0
	for b := 0; b < batches; b++ {
		resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			acked++
		case http.StatusTooManyRequests:
			// Backpressure is allowed; only acked batches must survive.
		default:
			t.Fatalf("ingest: unexpected status %d", resp.StatusCode)
		}
	}
	if acked == 0 {
		t.Fatal("no batch was acked")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got, want := s.Sink().Snapshot().Records, acked*perBatch; got != want {
		t.Fatalf("aggregate holds %d records after drain, want %d (acked batches × %d)", got, want, perBatch)
	}
}

// TestIngestBackpressure fills the bounded queue and expects explicit 429
// with a Retry-After hint instead of blocking or dropping silently.
func TestIngestBackpressure(t *testing.T) {
	slowFolds := fault.New(1, map[fault.Site]fault.Rule{
		fault.Fold: {DelayProb: 1, Delay: 200 * time.Millisecond},
	})
	s, err := New(tinySnapshot(t), nil, Config{QueueDepth: 1, IngestWorkers: 1, Faults: slowFolds})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	stream := probeStream(t, ingestRecords(5))
	saw429 := false
	var retryAfter string
	for i := 0; i < 10 && !saw429; i++ {
		resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if !saw429 {
		t.Fatal("full queue never answered 429")
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After hint")
	}
}

// TestIngestMalformedStream checks framing errors are isolated: a 400, a
// malformed counter bump, and nothing folded into the aggregate.
func TestIngestMalformedStream(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream",
		bytes.NewReader([]byte("not a probe stream at all")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", resp.StatusCode)
	}
	st := s.Stats()
	if st.IngestMalformed != 1 {
		t.Fatalf("malformed counter = %d", st.IngestMalformed)
	}
	if st.Aggregate.Records != 0 {
		t.Fatalf("%d records aggregated from a malformed stream", st.Aggregate.Records)
	}
}

// --- classify cache, limits, deadline ----------------------------------------

func TestClassifyRevisionCache(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	vec := AntennaVector{ID: 42, Revision: 7, Traffic: []float64{100, 5, 5}}

	_, body := postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{vec}})
	var first ClassifyResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.Results[0].Cached {
		t.Fatalf("first call should miss: %+v", first)
	}

	_, body = postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{vec}})
	var second ClassifyResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 1 || !second.Results[0].Cached {
		t.Fatalf("second call should hit the LRU: %+v", second)
	}
	if second.Results[0].Cluster != first.Results[0].Cluster {
		t.Fatal("cached cluster differs from computed cluster")
	}

	// A bumped revision is a different key: miss again.
	vec.Revision = 8
	_, body = postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{vec}})
	var third ClassifyResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != 0 {
		t.Fatal("new revision must not hit the old entry")
	}
}

func TestClassifyLRUEviction(t *testing.T) {
	snap := tinySnapshot(t)
	s, err := New(snap, nil, Config{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 3; id++ {
		s.cache.put(cacheKey{id, 1, snap.Revision}, int(id))
	}
	if s.cache.len() != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", s.cache.len())
	}
	if _, ok := s.cache.get(cacheKey{1, 1, snap.Revision}); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// retrainedSnapshot is tinySnapshot after a "retrain": same shape, a
// different forest, and therefore a different revision.
func retrainedSnapshot(t testing.TB) *ModelSnapshot {
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
	f := forest.Train(rca.RSCA(traffic), labels, 2, forest.Config{Trees: 9, Seed: 5})
	m := &ModelSnapshot{Ref: ref, Forest: f, K: 2, Services: 3}
	m.Revision = m.fingerprint()
	return m
}

// TestSwapSnapshotPurgesVerdictLRU pins the swap contract: after
// SwapSnapshot, a previously cached (antenna, revision) verdict must not
// be served — the LRU is purged, the re-classify runs under the new model,
// and the response echoes the new revision.
func TestSwapSnapshotPurgesVerdictLRU(t *testing.T) {
	snapA, snapB := tinySnapshot(t), retrainedSnapshot(t)
	if snapA.Revision == snapB.Revision {
		t.Fatal("fixture snapshots share a revision; the swap test needs distinct models")
	}
	s := startServer(t, snapA, Config{})
	vec := AntennaVector{ID: 42, Revision: 7, Traffic: []float64{100, 5, 5}}
	req := ClassifyRequest{Antennas: []AntennaVector{vec}}

	postJSON(t, baseURL(s)+"/v1/classify", req) // warm the LRU
	_, body := postJSON(t, baseURL(s)+"/v1/classify", req)
	var warm ClassifyResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 1 {
		t.Fatalf("warm-up did not cache: %+v", warm)
	}

	if err := s.SwapSnapshot(snapB); err != nil {
		t.Fatal(err)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("LRU holds %d entries after swap, want 0", n)
	}
	_, body = postJSON(t, baseURL(s)+"/v1/classify", req)
	var after ClassifyResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.CacheHits != 0 || after.Results[0].Cached {
		t.Fatalf("swap served a stale verdict from the previous snapshot: %+v", after)
	}
	if after.ModelRevision != snapB.Revision {
		t.Fatalf("post-swap revision %d, want %d", after.ModelRevision, snapB.Revision)
	}
	if s.Snapshot().Revision != snapB.Revision {
		t.Fatal("Snapshot() still returns the old model")
	}
	if err := s.SwapSnapshot(nil); err == nil {
		t.Fatal("nil swap must be rejected")
	}
}

// TestShutdownDrainsUnderFault is the drain-under-fault contract: with the
// fault layer injecting slow folds, ingest latency, and real queue
// pressure (small queue), a graceful shutdown must still fold every
// acked batch — zero acked-record loss, bounded wall-clock.
func TestShutdownDrainsUnderFault(t *testing.T) {
	inj := fault.New(1234, map[fault.Site]fault.Rule{
		fault.Fold:   {DelayProb: 0.8, Delay: 3 * time.Millisecond},
		fault.Ingest: {DelayProb: 0.3, Delay: time.Millisecond},
	})
	s, err := New(tinySnapshot(t), nil, Config{QueueDepth: 4, IngestWorkers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 60, 20
	stream := probeStream(t, ingestRecords(perBatch))
	acked, rejected := 0, 0
	for b := 0; b < batches; b++ {
		resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			acked++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++ // degradation is allowed; loss is not
		default:
			t.Fatalf("ingest: unexpected status %d", resp.StatusCode)
		}
	}
	if acked == 0 {
		t.Fatal("no batch was acked under fault load")
	}
	if rejected == 0 {
		t.Log("fault schedule produced no backpressure this run (still asserting zero loss)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under fault: %v", err)
	}
	if got, want := s.Sink().Snapshot().Records, acked*perBatch; got != want {
		t.Fatalf("aggregate holds %d records after faulted drain, want %d (%d acked batches × %d)",
			got, want, acked, perBatch)
	}
}

func TestClassifyRejectsBadVectors(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	resp, body := postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{
		Antennas: []AntennaVector{{ID: 1, Traffic: []float64{1, 2}}}, // wrong length
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-length vector: status %d (%s)", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: status %d", resp.StatusCode)
	}
}

// TestClassifyLengthErrorNamesRequestAntenna: when cache hits precede a
// wrong-length vector, the 400 names the vector's request index and id,
// not its position among the cache misses.
func TestClassifyLengthErrorNamesRequestAntenna(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	cached := AntennaVector{ID: 1, Revision: 7, Traffic: []float64{100, 5, 5}}
	if resp, body := postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{cached}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up classify: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{
		Antennas: []AntennaVector{cached, {ID: 2, Traffic: []float64{1, 2}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-length vector: status %d (%s)", resp.StatusCode, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if want := "antenna 1 (id 2) has 2 services, model expects 3"; e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}
}

func TestClassifyBatchCap(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{MaxClassifyAntennas: 2})
	var req ClassifyRequest
	for i := 0; i < 3; i++ {
		req.Antennas = append(req.Antennas, AntennaVector{ID: uint32(i), Traffic: []float64{1, 2, 3}})
	}
	resp, _ := postJSON(t, baseURL(s)+"/v1/classify", req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap batch: status %d, want 413", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a JSON body past MaxBodyBytes answers 413 on
// every JSON endpoint, as ingest and the router already do, not a 400
// blaming the body's syntax.
func TestOversizedBodyIs413(t *testing.T) {
	s := startServer(t, forecastSnapshot(t), Config{MaxBodyBytes: 64})
	// Valid JSON that only overruns the limit: the streaming decoders
	// must read past 64 bytes of whitespace before the value begins.
	leading := strings.Repeat(" ", 100) + `{}`
	// Classify reads the whole body before it decodes, so padding after
	// a valid value is bounded too; forecast and plan stop at the value.
	trailing := `{}` + strings.Repeat(" ", 100)
	for _, tc := range []struct{ name, path, body string }{
		{"classify", "/v1/classify", leading},
		{"forecast", "/v1/forecast", leading},
		{"plan", "/v1/plan", leading},
		{"classify trailing", "/v1/classify", trailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(baseURL(s)+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "exceeds 64 bytes") {
				t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, out)
			}
		})
	}
}

func TestClassifyDeadline(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{
		Antennas: []AntennaVector{{ID: 1, Traffic: []float64{1, 2, 3}}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// --- observability endpoints -------------------------------------------------

func TestStatsHealthzMetricsModel(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})

	// Generate some traffic first.
	stream := probeStream(t, ingestRecords(10))
	resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{
		Antennas: []AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})

	get := func(path string) (int, string) {
		r, err := http.Get(baseURL(s) + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body := get("/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.IngestBatches < 1 || st.ClassifyRequests < 1 {
		t.Fatalf("stats did not count activity: %+v", st)
	}
	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"icn_serve_ingest_records",
		"icn_serve_classify_latency_ms_bucket",
		"icn_serve_classify_latency_ms_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get("/v1/model")
	if code != 200 || !strings.Contains(body, fmt.Sprintf("%d", s.Snapshot().Revision)) {
		t.Fatalf("model: %d %s", code, body)
	}
}

// scrapeMetrics renders h's /metrics exposition.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// counterSample reads one counter from a /metrics exposition by its
// catalog name ("serve.ingest.batches" is exported as
// icn_serve_ingest_batches).
func counterSample(t *testing.T, text, name string) int64 {
	t.Helper()
	prefix := "icn_" + strings.ReplaceAll(name, ".", "_") + " "
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestStatsAgreeWithMetrics pins the contract between Stats and the
// server's /metrics: one fixed sequence touches every counted event, and
// each Stats field must equal the counter that /metrics exports for it.
// Each classify request also adds exactly one decode-phase observation.
func TestStatsAgreeWithMetrics(t *testing.T) {
	slowFolds := fault.New(1, map[fault.Site]fault.Rule{
		fault.Fold: {DelayProb: 1, Delay: 100 * time.Millisecond},
	})
	s := startServer(t, forecastSnapshot(t), Config{QueueDepth: 1, IngestWorkers: 1, Faults: slowFolds})

	ingest := func(body []byte) int {
		resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := ingest([]byte("not a probe stream")); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", code)
	}
	stream := probeStream(t, ingestRecords(5))
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("the depth-1 queue never answered 429")
		}
		if ingest(stream) == http.StatusTooManyRequests {
			break
		}
	}
	vec := AntennaVector{ID: 1, Revision: 3, Traffic: []float64{100, 5, 5}}
	cl := 0
	for i := 0; i < 2; i++ { // a miss, then a hit
		postJSON(t, baseURL(s)+"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{vec}})
		// Each classify request observes its body decode exactly once.
		if got := counterSample(t, scrapeMetrics(t, s.Handler()), "serve.classify.decode.ms.count"); got != int64(i+1) {
			t.Fatalf("after %d classify requests /metrics holds %d decode observations", i+1, got)
		}
		postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 24})
	}
	postJSON(t, baseURL(s)+"/v1/plan", PlanRequest{
		Horizon: 24, Actions: []forecast.Action{{Op: forecast.OpAddAntennas, Cluster: 0, Count: 1}},
	})
	// Shut down first so the drain has folded every acked batch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, s.Handler())
	st := s.Stats()
	for _, c := range []struct {
		metric string
		stat   int64
	}{
		{"serve.ingest.batches", st.IngestBatches},
		{"serve.ingest.records", st.IngestRecords},
		{"serve.ingest.rejected", st.IngestRejected},
		{"serve.ingest.malformed", st.IngestMalformed},
		{"serve.ingest.malformed", int64(st.Aggregate.MalformedStreams)},
		{"serve.ingest.folded", int64(st.Aggregate.Records)},
		{"serve.classify.requests", st.ClassifyRequests},
		{"serve.classify.antennas", st.ClassifiedVectors},
		{"serve.classify.cache.hits", st.CacheHits},
		{"serve.classify.cache.misses", st.CacheMisses},
		{"serve.forecast.requests", st.ForecastRequests},
		{"serve.forecast.cache.hits", st.ForecastCacheHits},
		{"serve.forecast.cache.misses", st.ForecastCacheMisses},
		{"serve.plan.requests", st.PlanRequests},
	} {
		if c.stat == 0 {
			t.Errorf("the sequence never counted %s", c.metric)
		}
		if got := counterSample(t, text, c.metric); got != c.stat {
			t.Errorf("/metrics reads %s = %d, Stats counts %d", c.metric, got, c.stat)
		}
	}
}

// TestIngestThenTrafficMatrix closes the loop: ingested sessions appear in
// the sink's traffic matrix exactly as the TCP collector would aggregate
// them.
func TestIngestThenTrafficMatrix(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	stream := probeStream(t, ingestRecords(24))
	resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tm := s.Sink().TrafficMatrix(4, 73)
	var total float64
	for i := 0; i < tm.Rows(); i++ {
		for _, v := range tm.Row(i) {
			total += v
		}
	}
	want := 24 * float64(2<<20+1<<18) / 1e6
	if diff := total - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("matrix total %.6f MB, want %.6f", total, want)
	}
}
