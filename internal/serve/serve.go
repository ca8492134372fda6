// Package serve is the online half of the reproduction: a long-running
// HTTP service that wraps a pipeline-trained model snapshot (the Eq. 5
// indoor-reference shares plus the Section 5.1.2 surrogate forest) and
// turns the offline two-months-in/nine-clusters-out pipeline into a live
// classification path for new antennas — the Section 6 use of the
// surrogate, operationalized.
//
// Endpoints:
//
//	POST /v1/ingest    probe-record batches (probe wire format) offered to
//	                   the ingest tier (Sinks): bounded per-shard queues
//	                   folded into collect.Sink aggregates, with explicit
//	                   429 backpressure
//	POST /v1/classify  antenna traffic vectors → Eq. 5 RSCA → forest
//	                   cluster, batched on the shared worker pool with an
//	                   LRU verdict cache keyed by (antenna, revision)
//	POST /v1/forecast  cluster- or antenna-conditioned busy-hour horizon
//	                   queries against the snapshot's Holt-Winters models,
//	                   with an LRU keyed by (model, horizon, revision)
//	POST /v1/plan      what-if capacity scenarios (add/remove/reassign
//	                   antennas, shift an event calendar) scored by
//	                   predicted busy-hour load
//	GET  /v1/stats     JSON serving statistics
//	GET  /v1/model     model snapshot metadata (vector length, k, revision)
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text: obs counters + latency histograms
//
// Classify, forecast and plan responses carry the revision of the snapshot
// that answered in an X-Icn-Revision header (RevisionHeader).
//
// Production behaviors: per-request context deadlines, bounded ingest queues
// with Retry-After hints, and graceful shutdown that stops intake, drains
// queued batches into the aggregate, and only then returns — an acked
// (202) record is never lost.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/probe"
)

// Fixed serving limits.
const (
	// forecastCacheSize bounds the forecast LRU in entries.
	forecastCacheSize = 1024
	// maxIngestRecords caps records per ingest batch.
	maxIngestRecords = 262144
	// retryAfter is the backpressure hint on 429 responses.
	retryAfter = time.Second
)

// Config parameterizes a Server. The zero value serves on an ephemeral
// localhost port with production-shaped defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// QueueDepth bounds the ingest queue of a tier New builds, in batches;
	// a full queue answers 429 with a Retry-After hint (default 64).
	QueueDepth int
	// RequestTimeout is the per-request context deadline (default 5s).
	RequestTimeout time.Duration
	// CacheSize bounds the classify LRU in entries; 0 selects the default
	// 4096, negative disables caching.
	CacheSize int
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxClassifyAntennas caps vectors per classify call (default 4096).
	MaxClassifyAntennas int
	// Faults optionally wires the deterministic fault-injection layer
	// (internal/fault) into the serving seams: ingest latency before the
	// ack, slow drain folds of a tier the server builds (fault.Fold), and
	// classify latency spikes. nil injects nothing; production configs
	// leave it nil.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxClassifyAntennas <= 0 {
		c.MaxClassifyAntennas = 4096
	}
	return c
}

// Stats is a point-in-time snapshot of one server's activity.
type Stats struct {
	// ModelRevision identifies the served snapshot.
	ModelRevision uint64 `json:"model_revision"`
	// Ingest side.
	IngestBatches   int64 `json:"ingest_batches"`
	IngestRecords   int64 `json:"ingest_records"`
	IngestRejected  int64 `json:"ingest_rejected"`
	IngestMalformed int64 `json:"ingest_malformed"`
	QueueDepth      int   `json:"queue_depth"`
	QueueCapacity   int   `json:"queue_capacity"`
	// Classify side.
	ClassifyRequests  int64 `json:"classify_requests"`
	ClassifiedVectors int64 `json:"classified_vectors"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEntries      int   `json:"cache_entries"`
	// Forecast side.
	ForecastRequests     int64 `json:"forecast_requests"`
	ForecastCacheHits    int64 `json:"forecast_cache_hits"`
	ForecastCacheMisses  int64 `json:"forecast_cache_misses"`
	ForecastCacheEntries int   `json:"forecast_cache_entries"`
	PlanRequests         int64 `json:"plan_requests"`
	// Aggregate sums the ingest tier's collector-compatible statistics.
	Aggregate collect.Stats `json:"aggregate"`
}

// Server is the online classification service.
type Server struct {
	cfg     Config
	snap    atomic.Pointer[ModelSnapshot]
	cache   *lru[cacheKey, int]
	fcCache *lru[forecastKey, ForecastResponse]

	// ingest is the tier acked batches are offered to; the server closes
	// it on Shutdown only when it built the tier itself (ownsIngest).
	ingest     *Sinks
	ownsIngest bool
	tasks      pipe.Tasks

	// refresh points at the attached refresh controller, if any; /v1/model
	// reports its telemetry.
	refresh atomic.Pointer[Refresher]

	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener

	startOnce sync.Once
	stopOnce  sync.Once

	// reg holds every series this server and its refresher emit; Stats
	// and /metrics read it.
	reg *obs.Registry
}

// New builds a server around a model snapshot. ingest is the tier its
// /v1/ingest offers batches to and its refresher folds; the shard router
// passes its own, shared by every replica. With nil the server builds and
// owns a one-shard tier (fault.Fold, the server's registry) whose drain
// worker starts now, so a handler exercised directly still gets its
// batches folded.
func New(snap *ModelSnapshot, ingest *Sinks, cfg Config) (*Server, error) {
	if snap == nil {
		return nil, errors.New("serve: nil model snapshot")
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	owns := ingest == nil
	if owns {
		var err error
		ingest, err = NewSinks(1, func(uint32) int { return 0 }, cfg.QueueDepth, fault.Fold, cfg.Faults, reg)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:        cfg,
		cache:      newLRU[cacheKey, int](cfg.CacheSize),
		fcCache:    newLRU[forecastKey, ForecastResponse](forecastCacheSize),
		ingest:     ingest,
		ownsIngest: owns,
		reg:        reg,
	}
	s.snap.Store(snap)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/ingest", WithDeadline(cfg.RequestTimeout, s.handleIngest))
	s.mux.HandleFunc("/v1/classify", WithDeadline(cfg.RequestTimeout, s.handleClassify))
	s.mux.HandleFunc("/v1/forecast", WithDeadline(cfg.RequestTimeout, s.handleForecast))
	s.mux.HandleFunc("/v1/plan", WithDeadline(cfg.RequestTimeout, s.handlePlan))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/healthz", Healthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Handler exposes the route table (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Ingest returns the tier acked batches are folded into.
func (s *Server) Ingest() *Sinks { return s.ingest }

// Snapshot returns the currently served model snapshot.
func (s *Server) Snapshot() *ModelSnapshot { return s.snap.Load() }

// SwapSnapshot atomically replaces the served model — the online half of a
// retrain — and purges the verdict and forecast LRUs so nothing computed
// by the previous snapshot lingers until it ages out. In-flight requests
// finish against whichever snapshot they loaded at entry; because cache
// keys also carry the model revision, a racing handler that inserts an
// entry after the purge still cannot have it served under the new model.
func (s *Server) SwapSnapshot(next *ModelSnapshot) error {
	if next == nil {
		return errors.New("serve: nil model snapshot")
	}
	s.snap.Store(next)
	s.cache.purge()
	s.fcCache.purge()
	s.reg.Add("serve.model.swaps", 1)
	return nil
}

// Start binds the listen address and begins serving on a tracked
// goroutine. It returns once the listener is bound; use Addr for the bound
// address and Shutdown to stop.
func (s *Server) Start() error {
	var err error
	s.startOnce.Do(func() {
		s.ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			err = fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
			return
		}
		s.tasks.Go(func() {
			// ErrServerClosed is the expected Shutdown outcome.
			_ = s.httpSrv.Serve(s.ln)
		})
	})
	return err
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully stops the server: it stops accepting requests and
// waits for in-flight handlers (bounded by ctx). When the server built its
// ingest tier, it then drains every queued batch into the aggregate before
// returning; a shared tier is left to its owner. Records acked with 202
// are therefore never lost across a graceful stop.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		if s.ln != nil {
			err = s.httpSrv.Shutdown(ctx)
		}
		// No listener-served handler can be running now (Shutdown waits
		// for them); a handler called directly later gets a closed
		// queue's 429 from an owned tier, never a lost ack.
		if s.ownsIngest {
			s.ingest.Close()
		}
		s.tasks.Wait()
	})
	return err
}

// WithDeadline wraps a handler with a per-request context deadline; the
// shard router wraps its handlers through it too. The context carries no
// pool, so classify fans out on the process-shared one.
func WithDeadline(timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// RevisionHeader names the response header that carries, in decimal, the
// revision of the snapshot a classify, forecast or plan handler loaded.
const RevisionHeader = "X-Icn-Revision"

// setRevision stamps w with the revision of the snapshot the handler
// loaded, so the header names the model that answered even when a swap
// lands mid-request.
func setRevision(w http.ResponseWriter, snap *ModelSnapshot) {
	w.Header().Set(RevisionHeader, strconv.FormatUint(snap.Revision, 10))
}

// WriteJSON answers with status and v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection owns delivery; nothing to do on error
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError answers with status and a {"error": ...} JSON body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// ReadBody reads a request body bounded by limit into one buffer, sized
// up front from Content-Length when the client declares a length within
// the limit. Past the limit it returns an *http.MaxBytesError.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		// The extra MinRead leaves room for the final read that sees EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// WriteBodyError answers a JSON request body that could not be read or
// decoded: 413 when it overran MaxBodyBytes, as ingest does, else 400. The
// shard router answers its own body-read failures through it too.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// WriteRetryLater answers 429 with a Retry-After hint of after, in whole
// seconds and at least 1.
func WriteRetryLater(w http.ResponseWriter, after time.Duration, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(after/time.Second))))
	WriteError(w, http.StatusTooManyRequests, "%s", msg)
}

// ErrMalformedStream marks a body ReadProbeBatch rejected because it is
// not a probe stream; each caller counts these under its own metric.
var ErrMalformedStream = errors.New("malformed probe stream")

// ReadProbeBatch reads one probe-wire-format batch of at most maxRecords
// records from a body bounded by maxBytes. When the body cannot become a
// batch it answers the request itself (413 past either bound, 400 for a
// malformed stream or an empty batch) and returns the reason; a malformed
// stream's error wraps ErrMalformedStream. Both the server's and the shard
// router's /v1/ingest read through it.
func ReadProbeBatch(w http.ResponseWriter, r *http.Request, maxBytes int64, maxRecords int) ([]probe.Record, error) {
	reject := func(status int, err error) ([]probe.Record, error) {
		WriteError(w, status, "%v", err)
		return nil, err
	}
	reader := probe.NewReader(http.MaxBytesReader(w, r.Body, maxBytes))
	var batch []probe.Record
	for {
		rec, err := reader.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return reject(http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
		}
		if err != nil {
			return reject(http.StatusBadRequest, fmt.Errorf("%w: %w", ErrMalformedStream, err))
		}
		batch = append(batch, rec)
		if len(batch) > maxRecords {
			return reject(http.StatusRequestEntityTooLarge, fmt.Errorf("batch exceeds %d records", maxRecords))
		}
	}
	if len(batch) == 0 {
		return reject(http.StatusBadRequest, errors.New("empty batch"))
	}
	return batch, nil
}

// handleIngest accepts one probe-wire-format batch, acks it with 202 once
// every sub-batch is safely queued in the ingest tier, and answers 429 with
// Retry-After when a target queue is full.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST a probe stream")
		return
	}
	front := s.ingest.queues[0].sink
	front.NoteConnection()
	batch, err := ReadProbeBatch(w, r, s.cfg.MaxBodyBytes, maxIngestRecords)
	if err != nil {
		if errors.Is(err, ErrMalformedStream) {
			front.NoteMalformed()
			s.reg.Add("serve.ingest.malformed", 1)
		}
		return
	}
	// Injected ingest latency lands before the ack: a spike can time the
	// request out (503) but can never lose an acked batch.
	if err := s.cfg.Faults.Wait(r.Context(), fault.Ingest); err != nil {
		WriteError(w, http.StatusServiceUnavailable, "deadline exceeded: %v", err)
		return
	}
	if !s.ingest.Offer(s.ingest.Partition(batch)) {
		s.reg.Add("serve.ingest.rejected", 1)
		WriteRetryLater(w, retryAfter, "ingest queue full, retry later")
		return
	}
	s.reg.Add("serve.ingest.batches", 1)
	s.reg.Add("serve.ingest.records", int64(len(batch)))
	s.reg.ObserveMS("serve.ingest.latency.ms", msSince(startAt))
	WriteJSON(w, http.StatusAccepted, map[string]int{"accepted": len(batch)})
}

// ClassifyRequest is the /v1/classify body: one traffic vector per
// antenna, with an optional caller-managed revision enabling the verdict
// cache.
type ClassifyRequest struct {
	Antennas []AntennaVector `json:"antennas"`
}

// AntennaVector is one antenna's raw per-service traffic totals.
type AntennaVector struct {
	// ID identifies the antenna across requests.
	ID uint32 `json:"id"`
	// Revision versions the traffic vector; repeats of (id, revision > 0)
	// are served from the LRU without re-running the model.
	Revision uint64 `json:"revision,omitempty"`
	// Traffic holds the per-service MB totals (length = model services).
	Traffic []float64 `json:"traffic"`
}

// ClassifyResponse mirrors the request order.
type ClassifyResponse struct {
	ModelRevision uint64           `json:"model_revision"`
	Results       []AntennaVerdict `json:"results"`
	CacheHits     int              `json:"cache_hits"`
}

// AntennaVerdict is one antenna's inferred demand cluster.
type AntennaVerdict struct {
	ID      uint32 `json:"id"`
	Cluster int    `json:"cluster"`
	Cached  bool   `json:"cached,omitempty"`
}

// handleClassify transforms the submitted traffic vectors with the Eq. 5
// indoor reference and classifies them with the surrogate forest, serving
// revision-cached antennas from the LRU.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST a classify request")
		return
	}
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		WriteBodyError(w, err)
		return
	}
	decodeAt := time.Now()
	req, err := DecodeClassify(body)
	s.reg.ObserveMS("serve.classify.decode.ms", msSince(decodeAt))
	if err != nil {
		WriteBodyError(w, err)
		return
	}
	if len(req.Antennas) == 0 {
		WriteError(w, http.StatusBadRequest, "no antennas in request")
		return
	}
	if len(req.Antennas) > s.cfg.MaxClassifyAntennas {
		WriteError(w, http.StatusRequestEntityTooLarge,
			"%d antennas exceeds the %d per-request cap", len(req.Antennas), s.cfg.MaxClassifyAntennas)
		return
	}
	s.reg.Add("serve.classify.requests", 1)

	// Load the snapshot once: every read below (revision echo, cache keys,
	// classification) must see the same model even if a swap lands
	// mid-request.
	snap := s.snap.Load()
	setRevision(w, snap)
	if err := s.cfg.Faults.Wait(r.Context(), fault.Classify); err != nil {
		WriteError(w, http.StatusServiceUnavailable, "deadline exceeded: %v", err)
		return
	}

	resp := ClassifyResponse{
		ModelRevision: snap.Revision,
		Results:       make([]AntennaVerdict, len(req.Antennas)),
	}
	var missIdx []int
	var missRows [][]float64
	for i, a := range req.Antennas {
		resp.Results[i].ID = a.ID
		if a.Revision > 0 {
			if cluster, ok := s.cache.get(cacheKey{a.ID, a.Revision, snap.Revision}); ok {
				resp.Results[i].Cluster = cluster
				resp.Results[i].Cached = true
				resp.CacheHits++
				continue
			}
		}
		// Checked here, not left to Classify, so the error names the
		// request index and id rather than a position among the misses.
		if len(a.Traffic) != snap.Services {
			WriteError(w, http.StatusBadRequest, "antenna %d (id %d) has %d services, model expects %d",
				i, a.ID, len(a.Traffic), snap.Services)
			return
		}
		missIdx = append(missIdx, i)
		missRows = append(missRows, a.Traffic)
	}
	s.reg.Add("serve.classify.cache.hits", int64(resp.CacheHits))
	s.reg.Add("serve.classify.cache.misses", int64(len(missIdx)))

	if len(missIdx) > 0 {
		clusters, err := snap.Classify(r.Context(), missRows)
		if err != nil {
			if r.Context().Err() != nil {
				WriteError(w, http.StatusServiceUnavailable, "deadline exceeded: %v", r.Context().Err())
				return
			}
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for mi, i := range missIdx {
			a := req.Antennas[i]
			resp.Results[i].Cluster = clusters[mi]
			if a.Revision > 0 {
				s.cache.put(cacheKey{a.ID, a.Revision, snap.Revision}, clusters[mi])
			}
		}
	}
	s.reg.Add("serve.classify.antennas", int64(len(req.Antennas)))
	s.reg.ObserveMS("serve.classify.latency.ms", msSince(startAt))
	WriteJSON(w, http.StatusOK, resp)
}

// handleStats reports the server's activity snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the serving statistics backing /v1/stats. Every count
// is read from the server's registry, so it agrees with /metrics.
func (s *Server) Stats() Stats {
	queued := 0
	for _, sh := range s.ingest.Stats() {
		queued += sh.QueuedBatches
	}
	return Stats{
		ModelRevision:     s.snap.Load().Revision,
		IngestBatches:     s.reg.Counter("serve.ingest.batches"),
		IngestRecords:     s.reg.Counter("serve.ingest.records"),
		IngestRejected:    s.reg.Counter("serve.ingest.rejected"),
		IngestMalformed:   s.reg.Counter("serve.ingest.malformed"),
		QueueDepth:        queued,
		QueueCapacity:     s.ingest.depth * len(s.ingest.queues),
		ClassifyRequests:  s.reg.Counter("serve.classify.requests"),
		ClassifiedVectors: s.reg.Counter("serve.classify.antennas"),
		CacheHits:         s.reg.Counter("serve.classify.cache.hits"),
		CacheMisses:       s.reg.Counter("serve.classify.cache.misses"),
		CacheEntries:      s.cache.len(),

		ForecastRequests:     s.reg.Counter("serve.forecast.requests"),
		ForecastCacheHits:    s.reg.Counter("serve.forecast.cache.hits"),
		ForecastCacheMisses:  s.reg.Counter("serve.forecast.cache.misses"),
		ForecastCacheEntries: s.fcCache.len(),
		PlanRequests:         s.reg.Counter("serve.plan.requests"),

		Aggregate: s.ingest.aggregate(),
	}
}

// handleModel reports snapshot metadata so clients can size vectors, plus
// the refresh controller's telemetry when one is attached.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	payload := map[string]any{
		"services":          snap.Services,
		"k":                 snap.K,
		"trees":             len(snap.Forest.Trees),
		"revision":          snap.Revision,
		"forecast_clusters": snap.Forecasts.K(),
	}
	if ref := s.refresh.Load(); ref != nil {
		payload["refresh"] = ref.Info()
	}
	WriteJSON(w, http.StatusOK, payload)
}

// Healthz answers a liveness probe; the shard router mounts it too.
func Healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the server's own series, then the process-wide
// ones, in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteMetrics(w, s.reg)
}

// WriteMetrics answers a /metrics scrape with an instance registry's
// series followed by obs.Default's process-wide ones. The catalog's
// Instance column keeps the two sets disjoint, so each name appears once.
func WriteMetrics(w http.ResponseWriter, reg *obs.Registry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, reg.MetricsText())
	_, _ = io.WriteString(w, obs.MetricsText())
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
