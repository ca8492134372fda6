package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/forecast"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/serve"
	"repro/internal/services"
)

// The serve leg's load shape. BENCH_serve.json records it, and the
// committed baseline was measured at these values: changing one needs a
// new baseline (make serve-bench).
const (
	serveClients  = 8  // concurrent classify and forecast clients
	serveRequests = 50 // requests per client, per load
	serveBatch    = 64 // antennas per classify request
)

// serveBenchRecord is the BENCH_serve.json schema: one snapshot of the
// serving path's sustained throughput and latency under concurrent load,
// plus one warm refresh cycle. TotalMS and Stages mirror the benchRecord
// shape so `icnbench -gate BENCH_serve.json -gatecompare <fresh>` ratchets
// the serving latencies exactly like the pipeline stages.
type serveBenchRecord struct {
	Seed          uint64  `json:"seed"`
	Scale         float64 `json:"scale"`
	Trees         int     `json:"trees"`
	Clients       int     `json:"clients"`
	RequestsPerC  int     `json:"requests_per_client"`
	BatchAntennas int     `json:"batch_antennas"`
	ModelRevision uint64  `json:"model_revision"`

	TotalRequests int     `json:"total_requests"`
	FailedReqs    int     `json:"failed_requests"`
	WallMS        float64 `json:"wall_ms"`
	RequestsPerS  float64 `json:"requests_per_s"`
	VectorsPerS   float64 `json:"vectors_per_s"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`

	IngestRecords int64 `json:"ingest_records"`
	CacheHits     int64 `json:"cache_hits"`

	// Forecast leg.
	ForecastRequests int     `json:"forecast_requests,omitempty"`
	ForecastAudited  int     `json:"forecast_audited,omitempty"`
	ForecastTrainMS  float64 `json:"forecast_train_ms,omitempty"`

	// Gate-comparable rows: classify_p50, classify_p99, refresh_warm,
	// forecast_train, forecast_p50, forecast_p99.
	TotalMS float64     `json:"total_ms"`
	Stages  []stageJSON `json:"stages"`
}

// runServeBench stands up an in-process icnserve instance around a freshly
// trained snapshot and sustains a concurrent classify load against it over
// real HTTP — plus a forecast load with a mid-run model swap and
// per-revision parity audit — then writes the latency/throughput record
// and drains the server gracefully.
func runServeBench(cfg analysis.Config, outPath string) error {
	fmt.Fprintf(os.Stderr, "icnbench: training snapshot (seed=%d scale=%.2f trees=%d)...\n",
		cfg.Seed, cfg.Scale, cfg.ForestTrees)
	res, err := analysis.Run(cfg)
	if err != nil {
		return err
	}
	snap, err := serve.NewModelSnapshot(res)
	if err != nil {
		return err
	}
	srv, err := serve.New(snap, nil, serve.Config{QueueDepth: 256})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	url := "http://" + srv.Addr().String()

	// The load uses the synthetic outdoor population's raw vectors — the
	// exact Section 5.3 workload — cycling through the rows per request.
	outdoor := res.Dataset.OutdoorTraffic
	batch := min(serveBatch, outdoor.Rows())
	bodies := make([][]byte, serveClients)
	for c := range bodies {
		var req serve.ClassifyRequest
		for i := 0; i < batch; i++ {
			row := (c*batch + i) % outdoor.Rows()
			req.Antennas = append(req.Antennas, serve.AntennaVector{
				ID: uint32(row), Traffic: outdoor.Row(row),
			})
		}
		bodies[c], err = json.Marshal(req)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "icnbench: serve load — %d clients × %d requests × %d antennas against %s\n",
		serveClients, serveRequests, batch, url)
	latencies := make([][]float64, serveClients)
	failures := make([]int, serveClients)
	start := time.Now()
	var loaders pipe.Tasks
	for c := 0; c < serveClients; c++ {
		c := c
		loaders.Go(func() {
			client := &http.Client{Timeout: 30 * time.Second}
			lat := make([]float64, 0, serveRequests)
			for r := 0; r < serveRequests; r++ {
				t0 := time.Now()
				resp, err := client.Post(url+"/v1/classify", "application/json", bytes.NewReader(bodies[c]))
				if err != nil {
					failures[c]++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures[c]++
					continue
				}
				lat = append(lat, float64(time.Since(t0).Microseconds())/1000)
			}
			latencies[c] = lat
		})
	}
	loaders.Wait()
	wall := time.Since(start)

	var all []float64
	failed := 0
	for c := range latencies {
		all = append(all, latencies[c]...)
		failed += failures[c]
	}
	if len(all) == 0 {
		return fmt.Errorf("icnbench: every serve-bench request failed")
	}
	sort.Float64s(all)
	quantile := func(q float64) float64 {
		i := int(q * float64(len(all)-1))
		return all[i]
	}

	// Refresh leg: fold a deterministic ingest batch over the training
	// campaign and time one warm refresh cycle — the latency an operator
	// pays per background model update.
	ref, err := serve.NewRefresher(srv, res, serve.RefreshConfig{Interval: time.Hour})
	if err != nil {
		return err
	}
	// Stop waits for the refreshed revision's audit job.
	defer ref.Stop()
	nIndoor := res.Dataset.Traffic.Rows()
	recs := make([]probe.Record, 0, 500)
	for i := 0; i < 500; i++ {
		recs = append(recs, probe.Record{
			Hour: uint32(i % 24), AntennaID: uint32(i % nIndoor),
			Protocol: probe.TCP, ServerPort: 443,
			ServerName: probe.DomainOf(i % services.M),
			DownBytes:  2 << 20, UpBytes: 1 << 18,
		})
	}
	srv.Ingest().Fold(recs)
	rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	rout, err := ref.RefreshOnce(rctx)
	rcancel()
	if err != nil {
		return fmt.Errorf("icnbench: serve refresh leg: %w", err)
	}
	if !rout.Swapped {
		return fmt.Errorf("icnbench: serve refresh leg published no new revision (drift %.4f)", rout.Stats.Drift)
	}
	refreshMS := float64(rout.Duration.Microseconds()) / 1000
	fmt.Fprintf(os.Stderr, "icnbench: warm refresh published revision %016x in %.1fms (reassigned %d, escalated %v)\n",
		rout.Revision, refreshMS, rout.Stats.Reassigned, rout.Stats.Escalated)

	st := srv.Stats()
	rec := serveBenchRecord{
		Seed: cfg.Seed, Scale: cfg.Scale, Trees: cfg.ForestTrees,
		Clients: serveClients, RequestsPerC: serveRequests, BatchAntennas: batch,
		ModelRevision: snap.Revision,
		TotalRequests: len(all),
		FailedReqs:    failed,
		WallMS:        float64(wall.Microseconds()) / 1000,
		RequestsPerS:  float64(len(all)) / wall.Seconds(),
		VectorsPerS:   float64(len(all)*batch) / wall.Seconds(),
		P50MS:         quantile(0.50),
		P99MS:         quantile(0.99),
		MaxMS:         all[len(all)-1],
		IngestRecords: st.IngestRecords,
		CacheHits:     st.CacheHits,
	}
	rec.TotalMS = rec.WallMS + refreshMS
	rec.Stages = []stageJSON{
		{Name: "classify_p50", WallMS: rec.P50MS},
		{Name: "classify_p99", WallMS: rec.P99MS},
		{Name: "refresh_warm", WallMS: refreshMS},
	}

	fc, err := runForecastLeg(srv, ref, res, url)
	if err != nil {
		return fmt.Errorf("icnbench: forecast leg: %w", err)
	}
	rec.ForecastRequests = fc.requests
	rec.ForecastAudited = fc.audited
	rec.ForecastTrainMS = fc.trainMS
	rec.TotalMS += fc.trainMS + fc.wallMS
	rec.Stages = append(rec.Stages,
		stageJSON{Name: "forecast_train", WallMS: fc.trainMS},
		stageJSON{Name: "forecast_p50", WallMS: fc.p50MS},
		stageJSON{Name: "forecast_p99", WallMS: fc.p99MS},
	)

	shutdownStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("icnbench: serve shutdown: %w", err)
	}
	fmt.Fprintf(os.Stderr, "icnbench: serve drained in %v — %.0f req/s, %.0f vectors/s, p50 %.2fms p99 %.2fms (%d failed)\n",
		time.Since(shutdownStart).Round(time.Millisecond),
		rec.RequestsPerS, rec.VectorsPerS, rec.P50MS, rec.P99MS, failed)

	if err := writeJSON(outPath, rec); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnbench: wrote serving benchmark to %s\n", outPath)
	return nil
}

// forecastLegResult carries the forecast leg's gate-row inputs.
type forecastLegResult struct {
	requests int
	audited  int
	trainMS  float64
	wallMS   float64
	p50MS    float64
	p99MS    float64
}

// fcObs is one sampled /v1/forecast response held for the parity audit.
type fcObs struct {
	rev      uint64
	cluster  int
	horizon  int
	forecast []float64
}

// runForecastLeg times the forecast-set training, then sustains a
// concurrent /v1/forecast load with one warm refresh swapping the model
// mid-run, and audits sampled responses bit-for-bit against an offline
// refit of the echoed revision's hourly series (Refresher.ResultFor +
// Result.RefitForecasts) — the chaos-style parity contract: a served
// forecast is exactly what forecast.Fit produces on that revision's data,
// across a snapshot swap. A superseded revision's registry entry keeps
// its published forecast set but not the traffic a refit needs, so each
// revision is refit while it is current: the one served when the leg
// starts, and the mid-run refresh's once the load has drained.
func runForecastLeg(srv *serve.Server, ref *serve.Refresher, res *analysis.Result, url string) (forecastLegResult, error) {
	var out forecastLegResult

	// refitCurrent refits a current revision, requires the refit to
	// reproduce its published set bit-for-bit and caches it for the audit.
	// It returns the refit's wall time.
	refits := map[uint64]*forecast.Set{}
	refitCurrent := func(rev uint64) (float64, error) {
		offline, ok := ref.ResultFor(rev)
		if !ok {
			return 0, fmt.Errorf("served revision %016x not resolvable to an offline result", rev)
		}
		start := time.Now()
		set, err := offline.RefitForecasts(context.Background())
		if err != nil {
			return 0, fmt.Errorf("revision %016x: %w", rev, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if offline.Forecasts == nil || set.Digest() != offline.Forecasts.Digest() {
			return 0, fmt.Errorf("revision %016x: offline refit diverged from the published forecast set", rev)
		}
		refits[rev] = set
		return ms, nil
	}

	// Train-time row: refit the served revision's forecast set offline.
	// The digest check makes the row meaningful: it times the exact
	// computation the serve path's models came from.
	var err error
	if out.trainMS, err = refitCurrent(srv.Snapshot().Revision); err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "icnbench: forecast training refit %d clusters in %.1fms (digest parity ok)\n",
		res.K, out.trainMS)

	horizons := []int{24, 48, 168}
	var done atomic.Int64
	latencies := make([][]float64, serveClients)
	samples := make([][]fcObs, serveClients)
	failures := make([]int, serveClients)
	query := func(client *http.Client, cluster, horizon int) (fcObs, float64, error) {
		body, err := json.Marshal(serve.ForecastRequest{Cluster: &cluster, Horizon: horizon})
		if err != nil {
			return fcObs{}, 0, err
		}
		t0 := time.Now()
		resp, err := client.Post(url+"/v1/forecast", "application/json", bytes.NewReader(body))
		if err != nil {
			return fcObs{}, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return fcObs{}, 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		var fr serve.ForecastResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			return fcObs{}, 0, err
		}
		lat := float64(time.Since(t0).Microseconds()) / 1000
		return fcObs{rev: fr.ModelRevision, cluster: fr.Cluster, horizon: fr.Horizon, forecast: fr.Forecast}, lat, nil
	}

	fmt.Fprintf(os.Stderr, "icnbench: forecast load — %d clients × %d requests with a mid-run swap\n",
		serveClients, serveRequests)
	loadStart := time.Now()
	var loaders pipe.Tasks
	for c := 0; c < serveClients; c++ {
		c := c
		loaders.Go(func() {
			client := &http.Client{Timeout: 30 * time.Second}
			for r := 0; r < serveRequests; r++ {
				obs, lat, err := query(client, (c+r)%res.K, horizons[r%len(horizons)])
				done.Add(1)
				if err != nil {
					failures[c]++
					continue
				}
				latencies[c] = append(latencies[c], lat)
				// Every 4th response is retained for the audit.
				if r%4 == 0 {
					samples[c] = append(samples[c], obs)
				}
			}
		})
	}

	// Land a model swap mid-run: wait for a third of the load to complete,
	// fold a fresh ingest batch and run one warm refresh. Requests issued
	// after the swap echo (and must match) the new revision.
	total := int64(serveClients * serveRequests)
	for done.Load() < total/3 {
		time.Sleep(time.Millisecond)
	}
	nIndoor := res.Dataset.Traffic.Rows()
	recs := make([]probe.Record, 0, 400)
	for i := 0; i < 400; i++ {
		recs = append(recs, probe.Record{
			Hour: uint32((i + 7) % 24), AntennaID: uint32((i * 3) % nIndoor),
			Protocol: probe.TCP, ServerPort: 443,
			ServerName: probe.DomainOf((i + 2) % services.M),
			DownBytes:  5 << 20, UpBytes: 1 << 18,
		})
	}
	srv.Ingest().Fold(recs)
	rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	rout, err := ref.RefreshOnce(rctx)
	rcancel()
	if err != nil {
		return out, fmt.Errorf("mid-run refresh: %w", err)
	}
	if !rout.Swapped {
		return out, fmt.Errorf("mid-run refresh published no new revision")
	}
	loaders.Wait()
	out.wallMS = float64(time.Since(loadStart).Microseconds()) / 1000
	// The leg's refresher runs no tick loop, so the mid-run revision is
	// still current; refitting it here keeps the refit's CPU out of the
	// timed load.
	if _, err := refitCurrent(rout.Revision); err != nil {
		return out, fmt.Errorf("mid-run refresh: %w", err)
	}

	// A slow swap can finish after fast clients drain; a handful of
	// post-swap queries guarantees the audit covers the new revision.
	tail := &http.Client{Timeout: 30 * time.Second}
	for c := 0; c < res.K; c++ {
		obs, _, err := query(tail, c, horizons[c%len(horizons)])
		if err != nil {
			return out, fmt.Errorf("post-swap query: %w", err)
		}
		samples[0] = append(samples[0], obs)
	}

	var all []float64
	failed := 0
	for c := range latencies {
		all = append(all, latencies[c]...)
		failed += failures[c]
	}
	if len(all) == 0 {
		return out, fmt.Errorf("every forecast request failed")
	}
	sort.Float64s(all)
	out.requests = len(all)
	out.p50MS = all[int(0.50*float64(len(all)-1))]
	out.p99MS = all[int(0.99*float64(len(all)-1))]

	// Parity audit: every sampled response must equal, bit for bit, the
	// refit of the revision it echoes.
	audited := map[uint64]bool{}
	for c := range samples {
		for _, obs := range samples[c] {
			set, ok := refits[obs.rev]
			if !ok {
				return out, fmt.Errorf("served revision %016x was never refit while current", obs.rev)
			}
			audited[obs.rev] = true
			cm := set.Cluster(obs.cluster)
			if cm == nil {
				return out, fmt.Errorf("revision %016x refit has no cluster %d", obs.rev, obs.cluster)
			}
			want := cm.Model.Forecast(obs.horizon)
			if len(want) != len(obs.forecast) {
				return out, fmt.Errorf("cluster %d: served %d hours, refit %d", obs.cluster, len(obs.forecast), len(want))
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(obs.forecast[i]) {
					return out, fmt.Errorf("revision %016x cluster %d hour %d: served %v, offline refit %v",
						obs.rev, obs.cluster, i, obs.forecast[i], want[i])
				}
			}
			out.audited++
		}
	}
	if len(audited) < 2 {
		return out, fmt.Errorf("audit saw %d revision(s), want the pre- and post-swap pair", len(audited))
	}
	fmt.Fprintf(os.Stderr, "icnbench: forecast parity audit — %d responses bit-exact across %d revisions (%d failed requests), p50 %.2fms p99 %.2fms\n",
		out.audited, len(audited), failed, out.p50MS, out.p99MS)
	return out, nil
}
