package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// FuzzRouterIngest feeds arbitrary bytes to the router's /v1/ingest
// partition path on a fresh router per input: the answer must be one of
// the documented statuses, and once the router drains, the records folded
// across the shards must equal the records it acked — all of an accepted
// batch, nothing of a rejected one.
func FuzzRouterIngest(f *testing.F) {
	snap := tinySnapshot(f)
	valid := probeStream(f, ingestRecords(40, 9))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte{0x49, 0x43, 0x4e, 0x50, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append(append([]byte{}, valid...), valid[6:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		rt, err := NewRouter(snap, nil, Config{Shards: 3, Replicas: 1, RingSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(data)))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()
		if int64(st.FoldedRecords) != st.AckedRecords || st.PendingRecords != 0 {
			t.Fatalf("after drain: folded %d, acked %d, pending %d", st.FoldedRecords, st.AckedRecords, st.PendingRecords)
		}
		switch rec.Code {
		case http.StatusAccepted:
			var ack struct{ Accepted int64 }
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Accepted != st.AckedRecords || ack.Accepted == 0 {
				t.Fatalf("202 %q but %d records acked", rec.Body.Bytes(), st.AckedRecords)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			if st.AckedRecords != 0 {
				t.Fatalf("status %d acked %d records", rec.Code, st.AckedRecords)
			}
		default:
			t.Fatalf("ingest answered %d for %d fuzz bytes", rec.Code, len(data))
		}
	})
}

// FuzzRouterPlan feeds arbitrary JSON to the router's /v1/plan proxy in
// front of replicas serving a real forecast set: malformed bodies and
// impossible scenarios must come back 4xx, and the only 5xx is 503.
func FuzzRouterPlan(f *testing.F) {
	snap, err := serve.NewModelSnapshot(goldenResult(f))
	if err != nil {
		f.Fatal(err)
	}
	if snap.Forecasts == nil {
		f.Fatal("golden snapshot carries no forecast set")
	}
	rt := startRouter(f, snap, nil, Config{Shards: 2, Replicas: 2, RingSeed: 11})
	f.Add([]byte(`{"horizon":24,"actions":[{"op":"add_antennas","cluster":0,"count":3}]}`))
	f.Add([]byte(`{"actions":[{"op":"remove_antennas","cluster":1,"count":1000000}]}`))
	f.Add([]byte(`{"actions":[{"op":"reassign","cluster":0,"to_cluster":2,"count":2}]}`))
	f.Add([]byte(`{"actions":[{"op":"shift_events","cluster":1,"hours":-9223372036854775808}]}`))
	f.Add([]byte(`{"actions":[{"op":"reassign","cluster":0,"to_cluster":-1}]}`))
	f.Add([]byte(`{"horizon":337,"actions":[]}`))
	f.Add([]byte(`{"actions":[{"op":"explode","cluster":0}]}`))
	f.Add([]byte(`{"actions":[{"op":"add_antennas","cluster":2147483647,"count":-5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		rt.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(data)))
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("plan answered %d (%s) for %q", rec.Code, rec.Body.Bytes(), data)
		}
	})
}
