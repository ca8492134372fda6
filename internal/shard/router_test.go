package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestRouterBodyReadErrorIs400 sends a body that fails mid-read through
// each proxied JSON endpoint: the router must answer 400, as the replica
// does, and keep 413 for bodies past MaxBodyBytes.
func TestRouterBodyReadErrorIs400(t *testing.T) {
	rt, err := NewRouter(tinySnapshot(t), nil, Config{Shards: 1, Replicas: 1, MaxBodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	for _, path := range []string{"/v1/classify", "/v1/forecast", "/v1/plan"} {
		rec := httptest.NewRecorder()
		rt.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path,
			iotest.ErrReader(errors.New("connection reset"))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with a failing body: status %d (%s), want 400", path, rec.Code, rec.Body.Bytes())
		}

		rec = httptest.NewRecorder()
		rt.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(strings.Repeat(" ", 65))))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 65-byte body over a 64-byte limit: status %d, want 413", path, rec.Code)
		}
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
// catalog name ("shard.ingest.batches" is exported as
// icn_shard_ingest_batches).
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

// TestRouterStatsAgreeWithMetrics is the router's half of the counter
// contract: after one sequence of acked, rejected and malformed batches
// and proxied requests, each RouterStats counter equals the counter the
// router's /metrics exports for it.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	slowFolds := fault.New(9, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: 50 * time.Millisecond},
	})
	rt := startRouter(t, tinySnapshot(t), nil, Config{
		Shards: 2, Replicas: 1, QueueDepth: 1, RingSeed: 3, Faults: slowFolds,
	})

	if resp := postStream(t, rt.URL(), []byte("not a probe stream")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", resp.StatusCode)
	}
	stream := probeStream(t, ingestRecords(40, 32))
	for i := 0; ; i++ {
		if i == 60 {
			t.Fatal("depth-1 shard queues never answered 429")
		}
		if postStream(t, rt.URL(), stream).StatusCode == http.StatusTooManyRequests {
			break
		}
	}
	body, err := json.Marshal(serve.ClassifyRequest{
		Antennas: []serve.AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(rt.URL()+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied classify: status %d", resp.StatusCode)
		}
	}
	// Shut down first so the shard drains have folded every acked batch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, rt.mux)
	st := rt.Stats()
	for _, c := range []struct {
		metric string
		stat   int64
	}{
		{"shard.ingest.batches", st.AckedBatches},
		{"shard.ingest.records", st.AckedRecords},
		{"shard.ingest.rejected", st.RejectedBatches},
		{"shard.ingest.malformed", st.MalformedStreams},
		{"shard.fold.records", int64(st.FoldedRecords)},
		{"shard.router.proxied", st.ClassifyProxied},
	} {
		if c.stat == 0 {
			t.Errorf("the sequence never counted %s", c.metric)
		}
		if got := counterSample(t, text, c.metric); got != c.stat {
			t.Errorf("/metrics reads %s = %d, RouterStats counts %d", c.metric, got, c.stat)
		}
	}
}

// TestReplicaMetricsAreIsolated proxies classifies over two replicas: each
// replica's /metrics must count exactly the requests that replica served,
// and a standalone server in the same process must count none of them.
func TestReplicaMetricsAreIsolated(t *testing.T) {
	snap := tinySnapshot(t)
	rt := startRouter(t, snap, nil, Config{Shards: 1, Replicas: 2})
	body, err := json.Marshal(serve.ClassifyRequest{
		Antennas: []serve.AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		resp, err := http.Post(rt.URL()+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied classify: status %d", resp.StatusCode)
		}
	}
	var sum int64
	for i := 0; i < 2; i++ {
		rep := rt.Replica(i)
		got := counterSample(t, scrapeMetrics(t, rep.Handler()), "serve.classify.requests")
		if own := rep.Stats().ClassifyRequests; got != own {
			t.Errorf("replica %d: /metrics counts %d classify requests, its Stats %d", i, got, own)
		}
		sum += got
	}
	if sum != n {
		t.Errorf("replica /metrics sum to %d classify requests, router proxied %d", sum, n)
	}
	standalone, err := serve.New(snap, nil, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = standalone.Shutdown(context.Background()) })
	if got := counterSample(t, scrapeMetrics(t, standalone.Handler()), "serve.classify.requests"); got != 0 {
		t.Errorf("a standalone server's /metrics counts %d classify requests it never served", got)
	}
}

// TestRouterNamesReplicaAndRevision proxies classifies over two replicas:
// each response names its replica in ReplicaHeader, consecutive requests
// name different replicas, and the relayed revision header equals the
// body's model_revision. /v1/model names its replica too.
func TestRouterNamesReplicaAndRevision(t *testing.T) {
	snap := tinySnapshot(t)
	rt := startRouter(t, snap, nil, Config{Shards: 1, Replicas: 2})
	body, err := json.Marshal(serve.ClassifyRequest{
		Antennas: []serve.AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := ""
	for i := 0; i < 4; i++ {
		resp, err := http.Post(rt.URL()+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.ClassifyResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied classify: status %d, %v", resp.StatusCode, err)
		}
		replica := resp.Header.Get(ReplicaHeader)
		if idx, err := strconv.Atoi(replica); err != nil || idx < 0 || idx >= 2 {
			t.Fatalf("classify %d: %s %q is no replica index", i, ReplicaHeader, replica)
		}
		if replica == prev {
			t.Errorf("classify %d: replica %s answered twice in a row", i, replica)
		}
		prev = replica
		rev := resp.Header.Get(serve.RevisionHeader)
		if rev != strconv.FormatUint(got.ModelRevision, 10) || got.ModelRevision != snap.Revision {
			t.Errorf("classify %d: %s %q, body model_revision %d, snapshot %d",
				i, serve.RevisionHeader, rev, got.ModelRevision, snap.Revision)
		}
	}
	resp, err := http.Get(rt.URL() + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(ReplicaHeader) == "" {
		t.Errorf("/v1/model through the router names no replica")
	}
}

// TestMetricsCarryEveryCatalogNameOnce scrapes a fresh router and a fresh
// standalone server before any traffic: each one's own registry plus the
// process-wide one must export every catalog name exactly once.
func TestMetricsCarryEveryCatalogNameOnce(t *testing.T) {
	rt, err := NewRouter(tinySnapshot(t), nil, Config{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Shutdown(context.Background()) })
	srv, err := serve.New(tinySnapshot(t), nil, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	for instance, h := range map[string]http.Handler{"router": rt.mux, "server": srv.Handler()} {
		types := map[string]int{}
		for _, line := range strings.Split(scrapeMetrics(t, h), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				types[name]++
			}
		}
		for name, n := range types {
			if n != 1 {
				t.Errorf("%s: %s is typed %d times", instance, name, n)
			}
		}
		for _, d := range obs.Catalog {
			if name := "icn_" + strings.ReplaceAll(d.Name, ".", "_"); types[name] != 1 {
				t.Errorf("%s: catalog metric %s appears %d times, want 1", instance, d.Name, types[name])
			}
		}
	}
}
