package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forecast"
)

// --- fixtures ---------------------------------------------------------------

// tinySeries builds a deterministic positive hour-of-week series with a
// diurnal ramp and a mild trend, long enough for Holt-Winters init.
func tinySeries(weeks int, offset float64) []float64 {
	out := make([]float64, weeks*forecast.SeasonLength)
	for i := range out {
		out[i] = 100 + offset + 10*float64(i%24) + 0.01*float64(i)
	}
	return out
}

// tinyForecastSet fits a two-cluster forecast set with one sampled antenna
// per cluster (indoor indices 3 and 9), matching tinySnapshot's two demand
// profiles in spirit.
func tinyForecastSet(t testing.TB) *forecast.Set {
	t.Helper()
	s0 := tinySeries(2, 0)
	s1 := tinySeries(2, 40)
	set, err := forecast.FitSet([]forecast.ClusterSeries{
		{Cluster: 0, Members: 4, Series: s0,
			Antennas: []forecast.AntennaSeries{{Antenna: 3, Series: s0}}},
		{Cluster: 1, Members: 4, Series: s1,
			Antennas: []forecast.AntennaSeries{{Antenna: 9, Series: s1}}},
	}, forecast.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// forecastSnapshot is tinySnapshot with forecast models attached and the
// revision re-fingerprinted over them.
func forecastSnapshot(t testing.TB) *ModelSnapshot {
	t.Helper()
	m := tinySnapshot(t)
	m.Forecasts = tinyForecastSet(t)
	m.Revision = m.fingerprint()
	return m
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --- /v1/forecast -----------------------------------------------------------

// TestForecastMatchesModelBitExact asserts the served forecast is exactly
// Model.Forecast on the snapshot's fitted state — the parity contract the
// bench audit and offline refits rely on.
func TestForecastMatchesModelBitExact(t *testing.T) {
	snap := forecastSnapshot(t)
	s := startServer(t, snap, Config{})

	cl := 1
	resp, body := postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 48})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster forecast: %d %s", resp.StatusCode, body)
	}
	var got ForecastResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ModelRevision != snap.Revision {
		t.Fatalf("revision %d, want %d", got.ModelRevision, snap.Revision)
	}
	cm := snap.Forecasts.Cluster(1)
	if got.Cluster != 1 || got.Members != cm.Members || got.BusyHour != cm.BusyHour {
		t.Fatalf("metadata %+v does not match cluster model %+v", got, cm)
	}
	if math.Float64bits(got.PeakMB) != math.Float64bits(cm.PeakMB) {
		t.Fatalf("peak %v, want %v", got.PeakMB, cm.PeakMB)
	}
	if !sameFloats(got.Forecast, cm.Model.Forecast(48)) {
		t.Fatal("served cluster forecast is not bit-equal to Model.Forecast")
	}

	ant := 9
	resp, body = postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Antenna: &ant})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("antenna forecast: %d %s", resp.StatusCode, body)
	}
	got = ForecastResponse{}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	am := snap.Forecasts.Antenna(9)
	if got.Antenna == nil || *got.Antenna != 9 || got.Cluster != am.Cluster {
		t.Fatalf("antenna response %+v, want antenna 9 in cluster %d", got, am.Cluster)
	}
	if got.Horizon != defaultForecastHorizon || len(got.Forecast) != defaultForecastHorizon {
		t.Fatalf("horizon defaulting: got %d with %d values", got.Horizon, len(got.Forecast))
	}
	if !sameFloats(got.Forecast, am.Model.Forecast(defaultForecastHorizon)) {
		t.Fatal("served antenna forecast is not bit-equal to Model.Forecast")
	}
}

// TestForecastRevisionCache asserts repeat queries hit the LRU with
// identical values and that stats expose the traffic.
func TestForecastRevisionCache(t *testing.T) {
	s := startServer(t, forecastSnapshot(t), Config{})
	cl := 0

	var first, second ForecastResponse
	resp, body := postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 24})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query must be a miss")
	}
	resp, body = postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 24})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second query: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query must be served from the LRU")
	}
	if !sameFloats(first.Forecast, second.Forecast) || first.ModelRevision != second.ModelRevision {
		t.Fatal("cached response diverged from the computed one")
	}

	// A different horizon is a different key, not a hit.
	resp, body = postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third query: %d %s", resp.StatusCode, body)
	}
	var third ForecastResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different horizon must miss the cache")
	}

	st := s.Stats()
	if st.ForecastRequests != 3 || st.ForecastCacheHits != 1 || st.ForecastCacheMisses != 2 {
		t.Fatalf("stats req/hit/miss = %d/%d/%d, want 3/1/2",
			st.ForecastRequests, st.ForecastCacheHits, st.ForecastCacheMisses)
	}
	if st.ForecastCacheEntries != 2 {
		t.Fatalf("cache entries %d, want 2", st.ForecastCacheEntries)
	}
}

// TestSwapSnapshotPurgesForecastLRU asserts a model swap empties the
// forecast cache and subsequent answers carry the new revision.
func TestSwapSnapshotPurgesForecastLRU(t *testing.T) {
	snap := forecastSnapshot(t)
	s := startServer(t, snap, Config{})
	cl := 0

	_, _ = postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl})
	if got := s.Stats().ForecastCacheEntries; got != 1 {
		t.Fatalf("primed cache has %d entries, want 1", got)
	}

	// Swap in a snapshot whose forecast set was fit on shifted series, so
	// the revision and the predictions both move.
	next := tinySnapshot(t)
	shifted := tinySeries(2, 7)
	set, err := forecast.FitSet([]forecast.ClusterSeries{
		{Cluster: 0, Members: 4, Series: shifted},
		{Cluster: 1, Members: 4, Series: tinySeries(2, 55)},
	}, forecast.Config{})
	if err != nil {
		t.Fatal(err)
	}
	next.Forecasts = set
	next.Revision = next.fingerprint()
	if next.Revision == snap.Revision {
		t.Fatal("fixture error: swapped snapshot kept the old revision")
	}
	if err := s.SwapSnapshot(next); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ForecastCacheEntries; got != 0 {
		t.Fatalf("swap left %d cached forecasts, want 0", got)
	}

	resp, body := postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap query: %d %s", resp.StatusCode, body)
	}
	var got ForecastResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("post-swap query must recompute, not replay the old revision")
	}
	if got.ModelRevision != next.Revision {
		t.Fatalf("post-swap revision %d, want %d", got.ModelRevision, next.Revision)
	}
	if !sameFloats(got.Forecast, set.Cluster(0).Model.Forecast(defaultForecastHorizon)) {
		t.Fatal("post-swap forecast is not the new model's prediction")
	}
}

// TestForecastValidation walks the documented error statuses.
func TestForecastValidation(t *testing.T) {
	s := startServer(t, forecastSnapshot(t), Config{})
	url := baseURL(s) + "/v1/forecast"
	cl, ant := 0, 3

	if resp, err := http.Get(url); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	if resp, err := http.Post(url, "application/json", strings.NewReader(`{`)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, url, ForecastRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no selector: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, url, ForecastRequest{Cluster: &cl, Antenna: &ant}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both selectors: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, url, ForecastRequest{Cluster: &cl, Horizon: maxForecastHorizon + 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("horizon over cap: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, url, ForecastRequest{Cluster: &cl, Horizon: -1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative horizon: %d, want 400", resp.StatusCode)
	}
	bad := 99
	if resp, _ := postJSON(t, url, ForecastRequest{Cluster: &bad}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range cluster: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, url, ForecastRequest{Antenna: &bad}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsampled antenna: %d, want 404", resp.StatusCode)
	}
}

// TestForecastWithoutModels asserts pre-forecast snapshots answer 503 on
// both endpoints instead of crashing.
func TestForecastWithoutModels(t *testing.T) {
	s := startServer(t, tinySnapshot(t), Config{})
	cl := 0
	resp, body := postJSON(t, baseURL(s)+"/v1/forecast", ForecastRequest{Cluster: &cl})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forecast without models: %d %s, want 503", resp.StatusCode, body)
	}
	resp, body = postJSON(t, baseURL(s)+"/v1/plan", PlanRequest{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("plan without models: %d %s, want 503", resp.StatusCode, body)
	}
}

// --- /v1/plan ---------------------------------------------------------------

// TestPlanRoundTrip scores a scenario over HTTP and checks the population
// edits and aggregate accounting against the forecast package directly.
func TestPlanRoundTrip(t *testing.T) {
	snap := forecastSnapshot(t)
	s := startServer(t, snap, Config{})

	req := PlanRequest{
		Horizon: 48,
		Actions: []forecast.Action{
			{Op: forecast.OpAddAntennas, Cluster: 0, Count: 4},
			{Op: forecast.OpReassign, Cluster: 1, ToCluster: 0, Count: 2},
		},
	}
	resp, body := postJSON(t, baseURL(s)+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, body)
	}
	var got PlanResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ModelRevision != snap.Revision || got.Plan == nil {
		t.Fatalf("plan response %+v", got)
	}
	if got.Plan.Clusters[0].AntennasAfter != 10 || got.Plan.Clusters[1].AntennasAfter != 2 {
		t.Fatalf("populations after edits: %d/%d, want 10/2",
			got.Plan.Clusters[0].AntennasAfter, got.Plan.Clusters[1].AntennasAfter)
	}
	want, err := snap.Forecasts.Plan(req.Actions, req.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Plan.TotalPlannedMB) != math.Float64bits(want.TotalPlannedMB) ||
		math.Float64bits(got.Plan.TotalBaselineMB) != math.Float64bits(want.TotalBaselineMB) {
		t.Fatalf("served plan totals %v/%v diverge from offline %v/%v",
			got.Plan.TotalBaselineMB, got.Plan.TotalPlannedMB,
			want.TotalBaselineMB, want.TotalPlannedMB)
	}
	if st := s.Stats(); st.PlanRequests != 1 {
		t.Fatalf("plan requests %d, want 1", st.PlanRequests)
	}
}

// TestResponsesNameRevision pins RevisionHeader: classify, forecast (a
// miss, then a cached hit) and plan each name, in the header, the revision
// their body reports, across a snapshot swap.
func TestResponsesNameRevision(t *testing.T) {
	snap := forecastSnapshot(t)
	s := startServer(t, snap, Config{})
	cl := 0
	calls := []struct {
		path string
		body any
	}{
		{"/v1/classify", ClassifyRequest{Antennas: []AntennaVector{{ID: 1, Traffic: []float64{100, 5, 5}}}}},
		{"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 24}},
		{"/v1/forecast", ForecastRequest{Cluster: &cl, Horizon: 24}},
		{"/v1/plan", PlanRequest{Horizon: 24, Actions: []forecast.Action{{Op: forecast.OpAddAntennas, Cluster: 0, Count: 1}}}},
	}
	for _, want := range []uint64{snap.Revision, snap.Revision + 1} {
		if want != snap.Revision {
			next := *snap
			next.Revision = want
			if err := s.SwapSnapshot(&next); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range calls {
			resp, body := postJSON(t, baseURL(s)+c.path, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", c.path, resp.StatusCode, body)
			}
			var echo struct {
				ModelRevision uint64 `json:"model_revision"`
			}
			if err := json.Unmarshal(body, &echo); err != nil {
				t.Fatal(err)
			}
			if got := resp.Header.Get(RevisionHeader); got != strconv.FormatUint(echo.ModelRevision, 10) || echo.ModelRevision != want {
				t.Fatalf("%s: %s %q, body model_revision %d, serving %d", c.path, RevisionHeader, got, echo.ModelRevision, want)
			}
		}
	}
}

// TestPlanValidationOverHTTP asserts scenario errors surface as 400 with
// the forecast package's message.
func TestPlanValidationOverHTTP(t *testing.T) {
	s := startServer(t, forecastSnapshot(t), Config{})
	url := baseURL(s) + "/v1/plan"

	if resp, err := http.Get(url); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", resp.StatusCode)
	}
	resp, body := postJSON(t, url, PlanRequest{Actions: []forecast.Action{{Op: "teleport", Cluster: 0}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "teleport") {
		t.Fatalf("unknown op: %d %s, want 400 naming the op", resp.StatusCode, body)
	}
	resp, body = postJSON(t, url, PlanRequest{Horizon: maxForecastHorizon + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("horizon over cap: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = postJSON(t, url,
		PlanRequest{Actions: []forecast.Action{{Op: forecast.OpRemoveAntennas, Cluster: 0, Count: 99}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-removal: %d %s, want 400", resp.StatusCode, body)
	}
}
