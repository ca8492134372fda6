package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestRouterStatsAgreeWithMetrics is the router's half of the counter
// contract: after one sequence of acked, rejected and malformed batches
// and proxied requests, each RouterStats counter equals the delta of its
// obs counter.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	slowFolds := fault.New(9, map[fault.Site]fault.Rule{
		fault.ShardFold: {DelayProb: 1, Delay: 50 * time.Millisecond},
	})
	rt := startRouter(t, tinySnapshot(t), nil, Config{
		Shards: 2, Replicas: 1, QueueDepth: 1, RingSeed: 3, Faults: slowFolds,
	})
	before := obs.Counters()

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

	after := obs.Counters()
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
		if d := after[c.metric] - before[c.metric]; d != c.stat {
			t.Errorf("%s grew by %d, RouterStats counts %d", c.metric, d, c.stat)
		}
	}
}
