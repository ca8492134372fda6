package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/mat"
	"repro/internal/rca"
	"repro/internal/synth"
)

// TestWarmRefreshRevisionParity is the serve side of the drift-0 parity
// fixture: a warm refresh over bit-identical traffic must fingerprint to
// the *same* revision as the cold run — the revision is a commitment to
// served behavior, so bit-identical models must be indistinguishable.
func TestWarmRefreshRevisionParity(t *testing.T) {
	cold := goldenResult(t)
	coldSnap, err := NewModelSnapshot(cold)
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := analysis.WarmRefresh(cold, cold.Dataset.Traffic.Clone(), nil, analysis.WarmConfig{
		DriftThreshold: analysis.DefaultDriftThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Drift != 0 || st.Escalated {
		t.Fatalf("unexpected movement on identical data: %+v", st)
	}
	warmSnap, err := NewModelSnapshot(warm)
	if err != nil {
		t.Fatal(err)
	}
	if warmSnap.Revision != coldSnap.Revision {
		t.Fatalf("drift-0 warm refresh changed the revision: %016x vs %016x",
			warmSnap.Revision, coldSnap.Revision)
	}
}

// TestRefresherSkipsWhenClean: with no aggregates folded since the last
// refresh, the controller must not retrain or swap.
func TestRefresherSkipsWhenClean(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	out, err := ref.RefreshOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Skipped || out.Swapped {
		t.Fatalf("clean refresh should skip: %+v", out)
	}
	if out.Revision != snap.Revision {
		t.Fatalf("revision moved without data: %016x vs %016x", out.Revision, snap.Revision)
	}
	info := ref.Info()
	if info.Skipped != 1 || info.Runs != 0 || info.Swaps != 0 {
		t.Fatalf("telemetry %+v", info)
	}
	if _, ok := ref.ResultFor(snap.Revision); !ok {
		t.Fatal("base revision must be registered for parity audits")
	}
}

// TestRefresherAdvancesRevisionAndServesParity drives the full loop:
// ingest over HTTP → refresh → swap, then audits a served response against
// the refreshed revision's offline result.
func TestRefresherAdvancesRevisionAndServesParity(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	// Land aggregates on a handful of antennas and wait for the drain
	// workers to fold them.
	stream := probeStream(t, ingestRecords(200))
	resp, err := http.Post(baseURL(s)+"/v1/ingest", "application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Ingest().FoldedRecords() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingested records never folded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	out, err := ref.RefreshOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped || !out.Swapped {
		t.Fatalf("refresh over new aggregates must swap: %+v", out)
	}
	if out.Revision == snap.Revision {
		t.Fatal("revision did not advance")
	}
	if s.Snapshot().Revision != out.Revision {
		t.Fatal("server still serves the old snapshot")
	}

	// The served verdicts must match the refreshed revision's offline
	// outdoor classification, row for row.
	offline, ok := ref.ResultFor(out.Revision)
	if !ok {
		t.Fatalf("refreshed revision %016x not registered", out.Revision)
	}
	outdoor := offline.Dataset.OutdoorTraffic
	var req ClassifyRequest
	for i := 0; i < outdoor.Rows(); i++ {
		req.Antennas = append(req.Antennas, AntennaVector{ID: uint32(i), Traffic: outdoor.Row(i)})
	}
	hresp, body := postJSON(t, baseURL(s)+"/v1/classify", req)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("classify: %d %s", hresp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ModelRevision != out.Revision {
		t.Fatalf("served revision %016x, want refreshed %016x", cr.ModelRevision, out.Revision)
	}
	for i, v := range cr.Results {
		if v.Cluster != offline.OutdoorLabels[i] {
			t.Fatalf("antenna %d: served %d, offline %d", i, v.Cluster, offline.OutdoorLabels[i])
		}
	}

	// A second refresh with no new aggregates converges (skip, no swap).
	out2, err := ref.RefreshOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Skipped || out2.Revision != out.Revision {
		t.Fatalf("idle refresh must hold the revision: %+v", out2)
	}

	// /v1/model reports the refresh telemetry.
	mresp, err := http.Get(baseURL(s) + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var model struct {
		Revision uint64      `json:"revision"`
		Refresh  RefreshInfo `json:"refresh"`
	}
	if err := json.Unmarshal(mbody, &model); err != nil {
		t.Fatal(err)
	}
	if model.Revision != out.Revision || model.Refresh.Runs != 1 || model.Refresh.Swaps != 1 {
		t.Fatalf("/v1/model refresh telemetry: %s", mbody)
	}
	// ...including the stage trace of the refresh that swapped. ResultFor
	// above waited for the revision's audit, so its outdoor stage has
	// landed, marked as run after the publish.
	stages := map[string]RefreshStage{}
	for _, st := range model.Refresh.LastStages {
		stages[st.Name] = st
	}
	for _, name := range []string{"assign", "forest", "outdoor", "forecast"} {
		st, ok := stages[name]
		if !ok || st.WallMS <= 0 || st.WaitedMS < 0 {
			t.Fatalf("/v1/model last_stages lacks a timed %q stage: %s", name, mbody)
		}
		if st.AfterPublish != (name == "outdoor") {
			t.Fatalf("/v1/model last_stages: %q after_publish = %v: %s", name, st.AfterPublish, mbody)
		}
	}
}

// swapOnce folds a probe batch into the server's sink and runs one refresh
// that must publish a new revision.
func swapOnce(t *testing.T, s *Server, ref *Refresher, records int) uint64 {
	t.Helper()
	s.Ingest().Fold(ingestRecords(records))
	out, err := ref.RefreshOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Swapped {
		t.Fatalf("refresh over new aggregates must swap: %+v", out)
	}
	return out.Revision
}

// servedShapeResult runs a private cold pipeline (seed 1, scale 0.1) with
// the served default of 100 trees. The byte ratios below are a claim about
// that shape: with goldenResult's 15 trees the forest is so small that the
// forecast set dominates both copies. Unlike goldenResult it is not
// cached, so a test may drop every reference to it.
func servedShapeResult(t *testing.T) *analysis.Result {
	t.Helper()
	ds := synth.Generate(synth.Config{Seed: 1, Scale: 0.1})
	res, err := analysis.RunOnDataset(ds, analysis.Config{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSupersededRevisionKeepsAuditSurface: once a revision is superseded,
// ResultFor serves its slim copy. Every audit a caller runs on a served
// revision — verdict parity, label reads, the published forecast digest,
// the stage trace — must still resolve to the values captured while it
// was current, while the traffic matrix, forest and RSCA matrix are no
// longer retained. The forecast refit needs the traffic, so it is checked
// while the revision is current and refused on the slim copy.
func TestSupersededRevisionKeepsAuditSurface(t *testing.T) {
	res := servedShapeResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	rev1 := swapOnce(t, s, ref, 200)
	full, ok := ref.ResultFor(rev1)
	if !ok || full.Surrogate == nil || full.RSCA == nil {
		t.Fatalf("current revision %016x must resolve to its full result", rev1)
	}
	outdoor := slices.Clone(full.OutdoorLabels)
	labels := slices.Clone(full.Labels)
	digest := full.Forecasts.Digest()
	refit, err := full.RefitForecasts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := refit.Digest(); got != digest {
		t.Fatalf("refit of the current revision: digest %016x, want the published %016x", got, digest)
	}

	rev2 := swapOnce(t, s, ref, 400)
	if rev2 == rev1 {
		t.Fatal("second swap kept the revision")
	}
	slim, ok := ref.ResultFor(rev1)
	if !ok {
		t.Fatalf("superseded revision %016x no longer resolves", rev1)
	}
	if slim == full {
		t.Fatal("superseded revision still resolves to its full result")
	}
	if !slices.Equal(slim.OutdoorLabels, outdoor) || !slices.Equal(slim.Labels, labels) {
		t.Fatal("slim copy changed the revision's verdicts or labels")
	}
	if got := slim.Forecasts.Digest(); got != digest {
		t.Fatalf("slim forecast digest %016x, want %016x", got, digest)
	}
	if _, err := slim.RefitForecasts(context.Background()); err == nil {
		t.Fatal("RefitForecasts on a slim copy must fail: it holds no traffic")
	}
	if len(slim.Trace().Stages()) == 0 {
		t.Fatal("slim copy lost the revision's stage trace")
	}
	if slim.Dataset != nil || slim.Surrogate != nil || slim.RSCA != nil {
		t.Fatal("slim copy still pins the dataset, the surrogate or the RSCA matrix")
	}
	if _, err := NewModelSnapshot(slim); err == nil {
		t.Fatal("NewModelSnapshot accepted a slim result")
	}
	if base, ok := ref.ResultFor(snap.Revision); !ok || base.Surrogate != nil {
		t.Fatal("the superseded base revision must resolve to a slim copy")
	}

	// Bytes each copy of revision 1 retains beyond what the current
	// revision and the cold base already reach (the shared calendar,
	// antenna list and outdoor traffic).
	cur, _ := ref.ResultFor(rev2)
	shared := map[uintptr]bool{}
	retainedBytes(reflect.ValueOf(cur), shared)
	retainedBytes(reflect.ValueOf(res), shared)
	fullBytes := retainedBytes(reflect.ValueOf(full), maps.Clone(shared))
	slimBytes := retainedBytes(reflect.ValueOf(slim), maps.Clone(shared))
	t.Logf("revision 1 retains %d B full, %d B slim", fullBytes, slimBytes)
	if 2*slimBytes > fullBytes {
		t.Fatalf("slim copy retains %d B, more than half the full result's %d B", slimBytes, fullBytes)
	}
	// The slim entry's shape is the documented byte bound: the label
	// vectors and the forecast set, plus headers.
	if bound := slimEntryBound(slim, shared); slimBytes > bound {
		t.Fatalf("slim copy retains %d B, above its shape bound of %d B", slimBytes, bound)
	}
}

// TestRefreshRegistryBoundedInBytes: the registry is bounded in entries
// and, through the slim shape, in bytes. After History+3 refreshes it
// holds exactly History revisions, no superseded entry reaches any
// revision's traffic matrix or forest split record (the current one
// reaches only its own), and the bytes the registry retains beyond the
// current revision's full result — which the next refresh starts from
// whatever the bound — stay within History slim-entry bounds.
func TestRefreshRegistryBoundedInBytes(t *testing.T) {
	res := servedShapeResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	const history = 4
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour, History: history})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	// Every revision's traffic matrix. The test holds each one, so no
	// address below can be freed and reused by a later allocation.
	traffic := map[uint64]*mat.Dense{snap.Revision: res.Dataset.Traffic}
	// Every refreshed revision's forest split record (the cold base has
	// none), held like the traffic matrices.
	records := map[uint64]reflect.Value{}
	var cur uint64
	for i := 0; i < history+3; i++ {
		cur = swapOnce(t, s, ref, 100*(i+1))
		full, ok := ref.ResultFor(cur)
		if !ok || full.Dataset == nil {
			t.Fatalf("current revision %016x must resolve to its full result", cur)
		}
		traffic[cur] = full.Dataset.Traffic
		records[cur] = forestRecordOf(full)
		if records[cur].IsNil() {
			t.Fatalf("refreshed revision %016x carries no forest split record", cur)
		}
	}

	ref.mu.Lock()
	entries := maps.Clone(ref.history)
	ref.mu.Unlock()
	if len(entries) != history {
		t.Fatalf("registry holds %d entries after %d refreshes, want History = %d", len(entries), history+3, history)
	}
	current := entries[cur]
	if current == nil || current.Surrogate == nil {
		t.Fatalf("current revision %016x is not registered as its full result", cur)
	}
	for rev, e := range entries {
		reach := map[uintptr]bool{}
		retainedBytes(reflect.ValueOf(e), reach)
		for owner, m := range traffic {
			if rev == cur && owner == cur {
				continue // the current result is the next refresh's base
			}
			header, data := reflect.ValueOf(m).Pointer(), reflect.ValueOf(m.Row(0)).Pointer()
			if reach[header] || reach[data] {
				t.Fatalf("entry %016x reaches revision %016x's traffic matrix", rev, owner)
			}
		}
		for owner, rec := range records {
			if rev == cur && owner == cur {
				continue // the next refresh replays it
			}
			if reach[rec.Pointer()] {
				t.Fatalf("entry %016x reaches revision %016x's forest split record", rev, owner)
			}
		}
	}

	shared := map[uintptr]bool{}
	retainedBytes(reflect.ValueOf(current), shared)
	var perEntry int64
	for rev, e := range entries {
		if rev != cur {
			perEntry = max(perEntry, slimEntryBound(e, shared))
		}
	}
	var total int64
	for _, e := range entries {
		total += retainedBytes(reflect.ValueOf(e), shared)
	}
	limit := history * perEntry
	t.Logf("registry of %d entries retains %d B beyond the current result; bound %d B", len(entries), total, limit)
	if total > limit {
		t.Fatalf("registry retains %d B beyond the current result, above History × slim bound = %d B", total, limit)
	}
}

// forestRecordOf returns res's forest split record pointer (nil if it has
// none), read from its unexported field.
func forestRecordOf(res *analysis.Result) reflect.Value {
	return reflect.ValueOf(res).Elem().FieldByName("forestRecord")
}

// slimEntryOverhead bounds what a slim entry holds besides its label
// vectors and forecast set: the Result header and the stage trace.
const slimEntryOverhead = 4 << 10

// slimEntryBound is the byte bound of one slim registry entry: its label
// vectors and its forecast set's bytes beyond shared, plus
// slimEntryOverhead.
func slimEntryBound(slim *analysis.Result, shared map[uintptr]bool) int64 {
	return 8*int64(len(slim.Labels)+len(slim.LabelAlignment)+len(slim.OutdoorLabels)+len(slim.OutdoorShare)) +
		retainedBytes(reflect.ValueOf(slim.Forecasts), maps.Clone(shared)) +
		slimEntryOverhead
}

// retainedBytes sums the heap bytes reachable from v that are not yet in
// seen, marking what it visits: a pointer counts its pointee once, a
// slice its backing array once, a map its entries. Strings, channels and
// functions count nothing, so the figure is a lower bound dominated by
// the float and int arrays that make up a pipeline result.
func retainedBytes(v reflect.Value, seen map[uintptr]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return int64(v.Type().Elem().Size()) + retainedBytes(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return retainedBytes(v.Elem(), seen)
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := int64(v.Cap()) * int64(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += retainedBytes(v.Index(i), seen)
		}
		return n
	case reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := int64(v.Len()) * int64(v.Type().Key().Size()+v.Type().Elem().Size())
		for it := v.MapRange(); it.Next(); {
			n += retainedBytes(it.Key(), seen) + retainedBytes(it.Value(), seen)
		}
		return n
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += retainedBytes(v.Field(i), seen)
		}
		return n
	case reflect.Array:
		var n int64
		for i := 0; i < v.Len(); i++ {
			n += retainedBytes(v.Index(i), seen)
		}
		return n
	}
	return 0
}

// TestRefresherTickLoop exercises the background loop end to end: a short
// interval must pick up folded aggregates and swap without manual calls.
func TestRefresherTickLoop(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	defer ref.Stop()

	s.Ingest().Fold(ingestRecords(500))
	deadline := time.Now().Add(20 * time.Second)
	for s.Snapshot().Revision == snap.Revision {
		if time.Now().After(deadline) {
			t.Fatal("tick loop never swapped the snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info := ref.Info(); info.Swaps < 1 {
		t.Fatalf("telemetry after tick swap: %+v", info)
	}
}

// TestDrainDuringSwap is the drain-during-swap contract: a graceful
// shutdown racing a refresh-driven SwapSnapshot must neither drop acked
// batches nor serve a verdict inconsistent with the revision a response
// echoes — every successful response resolves, through the refresher's
// registry, to offline verdicts that match bit for bit.
func TestDrainDuringSwap(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(99, map[fault.Site]fault.Rule{
		fault.Fold:     {DelayProb: 0.9, Delay: 2 * time.Millisecond},
		fault.Classify: {DelayProb: 0.3, Delay: time.Millisecond},
	})
	s, err := New(snap, nil, Config{QueueDepth: 256, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	// Ack a pile of batches through the slow-folding queue.
	const batches, perBatch = 30, 40
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
			// Backpressure is allowed.
		default:
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	if acked == 0 {
		t.Fatal("no batch acked")
	}
	// Wait until some records folded so the refresh genuinely retrains.
	deadline := time.Now().Add(10 * time.Second)
	for s.Ingest().FoldedRecords() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no records folded")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Classify clients observe (revision, verdict) pairs while the swap
	// and the shutdown race below.
	outdoor := res.Dataset.OutdoorTraffic
	var req ClassifyRequest
	rows := 8
	if outdoor.Rows() < rows {
		rows = outdoor.Rows()
	}
	for i := 0; i < rows; i++ {
		req.Antennas = append(req.Antennas, AntennaVector{ID: uint32(i), Traffic: outdoor.Row(i)})
	}
	reqBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type observed struct {
		rev      uint64
		clusters []int
	}
	var (
		obsMu    sync.Mutex
		observes []observed
		wg       sync.WaitGroup
	)
	const clients = 3
	stopClients := make(chan struct{})
	// Each client signals its first 200 here, so the race below starts
	// with every client mid-stream.
	firstOK := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			signalled := false
			for {
				select {
				case <-stopClients:
					return
				default:
				}
				resp, err := http.Post(baseURL(s)+"/v1/classify", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					return // server is gone; shutdown won the race
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					continue // 503 under fault/drain is allowed; wrong data is not
				}
				var cr ClassifyResponse
				if err := json.Unmarshal(body, &cr); err != nil {
					continue
				}
				o := observed{rev: cr.ModelRevision}
				for _, v := range cr.Results {
					o.clusters = append(o.clusters, v.Cluster)
				}
				obsMu.Lock()
				observes = append(observes, o)
				obsMu.Unlock()
				if !signalled {
					signalled = true
					firstOK <- struct{}{}
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		select {
		case <-firstOK:
		case <-time.After(30 * time.Second):
			close(stopClients)
			wg.Wait()
			t.Fatalf("only %d of %d classify clients completed a request before the race", c, clients)
		}
	}

	// Race: the refresh (ending in SwapSnapshot) against graceful shutdown.
	refreshDone := make(chan error, 1)
	go func() {
		_, err := ref.RefreshOnce(context.Background())
		refreshDone <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during swap: %v", err)
	}
	close(stopClients)
	wg.Wait()
	if err := <-refreshDone; err != nil {
		t.Fatalf("refresh during shutdown: %v", err)
	}

	// Invariant 1: zero acked-record loss across the drain.
	if got, want := s.Ingest().FoldedRecords(), acked*perBatch; got != want {
		t.Fatalf("aggregate holds %d records, want %d (%d acked × %d)", got, want, acked, perBatch)
	}
	// Invariant 2: every successful response is bit-consistent with the
	// offline result of the revision it echoes — no verdict from an
	// outgoing revision under the incoming revision's banner or vice versa.
	if len(observes) == 0 {
		t.Fatal("no classify response completed, so no verdict was audited")
	}
	t.Logf("auditing %d classify responses", len(observes))
	for _, o := range observes {
		offline, ok := ref.ResultFor(o.rev)
		if !ok {
			t.Fatalf("response echoed unregistered revision %016x", o.rev)
		}
		for i, c := range o.clusters {
			if c != offline.OutdoorLabels[i] {
				t.Fatalf("revision %016x: served cluster %d for antenna %d, offline %d",
					o.rev, c, i, offline.OutdoorLabels[i])
			}
		}
	}
}

// TestResultForRacesBackToBackRefreshes: readers resolve every published
// revision through ResultFor while RefreshOnce runs back to back, so reads
// land on pending audits, on the current result and on slim entries. Each
// read must return the verdicts a synchronous WarmRefresh + ClassifyOutdoor
// chain computes for that revision, no registry entry may hold nil
// verdicts, and Stop must return only after the last audit has landed.
func TestResultForRacesBackToBackRefreshes(t *testing.T) {
	res := goldenResult(t)
	snap, err := NewModelSnapshot(res)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, snap, Config{})
	ref, err := NewRefresher(s, res, RefreshConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	type observed struct {
		rev    uint64
		labels []int
		ok     bool
	}
	var (
		mu        sync.Mutex
		published = []uint64{snap.Revision}
		observes  []observed
		readers   sync.WaitGroup
	)
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				revs := append([]uint64{s.Snapshot().Revision}, published...)
				mu.Unlock()
				for _, rev := range revs {
					res, ok := ref.ResultFor(rev)
					o := observed{rev: rev, ok: ok}
					if ok {
						o.labels = res.OutdoorLabels
					}
					mu.Lock()
					observes = append(observes, o)
					mu.Unlock()
				}
			}
		}()
	}

	const refreshes = 8
	rows, cols := res.Dataset.Traffic.Rows(), res.Dataset.Traffic.Cols()
	var seen []*mat.Dense
	var revs []uint64
	for i := 0; i < refreshes; i++ {
		s.Ingest().Fold(ingestRecords(100 * (i + 1)))
		seen = append(seen, s.Ingest().TrafficMatrix(rows, cols))
		out, err := ref.RefreshOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		revs = append(revs, out.Revision)
		mu.Lock()
		published = append(published, out.Revision)
		mu.Unlock()
	}
	ref.Stop()
	close(stop)
	readers.Wait()

	// Stop waited for the last audit: nothing is pending, and every
	// registry entry, slim or full, holds its verdicts.
	ref.mu.Lock()
	if ref.audit != nil {
		ref.mu.Unlock()
		t.Fatalf("Stop returned with revision %016x still being audited", ref.audit.revision)
	}
	for rev, entry := range ref.history {
		if entry.OutdoorLabels == nil || entry.OutdoorShare == nil {
			ref.mu.Unlock()
			t.Fatalf("registry entry %016x holds nil verdicts", rev)
		}
	}
	last, ok := ref.history[revs[len(revs)-1]]
	ref.mu.Unlock()
	if !ok || last.Surrogate == nil {
		t.Fatal("the last revision is not registered as the full current result")
	}

	// The synchronous reference: the same chain of folds, refreshed and
	// audited in line.
	acc, err := rca.NewAccumulator(res.Dataset.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]int{snap.Revision: res.OutdoorLabels}
	prev := res
	for i, totals := range seen {
		if err := acc.SetTotals(totals); err != nil {
			t.Fatal(err)
		}
		traffic, dirty := acc.Materialize()
		w, _, err := analysis.WarmRefresh(prev, traffic, dirty, analysis.WarmConfig{DriftThreshold: analysis.DefaultDriftThreshold})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ClassifyOutdoor(context.Background()); err != nil {
			t.Fatal(err)
		}
		wsnap, err := NewModelSnapshot(w)
		if err != nil {
			t.Fatal(err)
		}
		if wsnap.Revision != revs[i] {
			t.Fatalf("refresh %d published %016x, the synchronous chain %016x", i, revs[i], wsnap.Revision)
		}
		want[wsnap.Revision] = w.OutdoorLabels
		prev = w
	}

	if len(observes) == 0 {
		t.Fatal("no reader completed a ResultFor call")
	}
	for _, o := range observes {
		if !o.ok || o.labels == nil {
			t.Fatalf("ResultFor(%016x) = ok %v, verdicts %v: every served revision must resolve with verdicts", o.rev, o.ok, o.labels != nil)
		}
		if !slices.Equal(o.labels, want[o.rev]) {
			t.Fatalf("ResultFor(%016x) verdicts differ from the synchronous WarmRefresh + ClassifyOutdoor", o.rev)
		}
	}
	for _, rev := range revs {
		got, ok := ref.ResultFor(rev)
		if !ok || !slices.Equal(got.OutdoorLabels, want[rev]) {
			t.Fatalf("revision %016x does not resolve to its verdicts after Stop", rev)
		}
	}
}
