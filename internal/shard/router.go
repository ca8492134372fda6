package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/serve"
)

// Config parameterizes the sharded router. The zero value fronts 4 shards
// and 2 replicas on an ephemeral localhost port.
type Config struct {
	// Shards is the number of ingest/aggregation shards (default 4).
	Shards int
	// Replicas is the number of serve replicas behind the router
	// (default 2). Replica 0 is the refresh primary.
	Replicas int
	// VirtualNodes is the ring's per-shard virtual-node count (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// RingSeed seeds the ring's placement streams; the same seed always
	// yields the same antenna → shard map.
	RingSeed uint64
	// QueueDepth bounds each shard's ingest queue in batches; a full
	// target shard rejects the whole batch with 429 (default 64).
	QueueDepth int
	// Addr is the router's listen address (default "127.0.0.1:0").
	Addr string
	// RequestTimeout is the per-request deadline on the router and its
	// replicas (default 15s — proxied classifies pay two hops).
	RequestTimeout time.Duration
	// RetryAfter is the backpressure hint on 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MiB — the sharded
	// path is sized for bulk ingest).
	MaxBodyBytes int64
	// MaxIngestRecords caps records per ingest batch (default 1<<20).
	MaxIngestRecords int
	// Refresh parameterizes the attached refresh controller. Its Totals
	// and OnSwap seams are owned by the router (merged cross-shard totals,
	// snapshot fan-out); a non-zero Interval starts the tick loop on
	// Start. Leave Interval zero to drive refreshes manually through
	// RefreshOnce.
	Refresh serve.RefreshConfig
	// Pool overrides the worker pool replicas classify on (default: the
	// process-shared pool).
	Pool *pipe.Pool
	// Faults optionally wires deterministic fault injection into the
	// sharded seams: router ingest latency (fault.Ingest), shard drain
	// folds (fault.ShardFold), and the replicas' own sites. nil injects
	// nothing.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxIngestRecords <= 0 {
		c.MaxIngestRecords = 1 << 20
	}
	return c
}

// replica is one serve.Server behind the router plus its routing state.
type replica struct {
	srv   *serve.Server
	url   string
	alive atomic.Bool
}

// Router is the sharded front door: it partitions ingest batches across
// the shard sinks by consistent hash, proxies classify traffic round-robin
// over live replicas with transport-error failover, and distributes every
// refreshed snapshot to all replicas so they serve one revision.
type Router struct {
	cfg      Config
	ring     *Ring
	sinks    *Sinks
	replicas []*replica
	ref      *serve.Refresher

	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener
	client  *http.Client
	tasks   pipe.Tasks

	startOnce sync.Once
	stopOnce  sync.Once
	draining  atomic.Bool
	rr        atomic.Uint64

	// reg holds every series the router and its Sinks emit; Stats and
	// /metrics read it. Each replica keeps its own.
	reg *obs.Registry
	// lastFanoutMS holds float64 bits of the most recent fan-out lag.
	lastFanoutMS atomic.Uint64
}

// NewRouter builds the sharded layer around a trained snapshot: cfg.Shards
// sink shards on a seeded ring and cfg.Replicas serve replicas all serving
// snap. base is the offline result the snapshot was trained from; when
// non-nil a refresh controller is attached to replica 0 with the router's
// cross-shard totals and fan-out wired into its seams (pass nil to serve a
// static snapshot). Call Start to bind, Shutdown for a drained stop.
func NewRouter(snap *serve.ModelSnapshot, base *analysis.Result, cfg Config) (*Router, error) {
	if snap == nil {
		return nil, errors.New("shard: nil model snapshot")
	}
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Shards, cfg.VirtualNodes, cfg.RingSeed)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sinks, err := NewSinks(ring, cfg.QueueDepth, cfg.Faults, reg)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		sinks:  sinks,
		client: &http.Client{},
		reg:    reg,
	}
	for i := 0; i < cfg.Replicas; i++ {
		srv, err := serve.New(snap, nil, serve.Config{
			Pool:           cfg.Pool,
			Faults:         cfg.Faults,
			RequestTimeout: cfg.RequestTimeout,
		})
		if err != nil {
			sinks.Close()
			return nil, fmt.Errorf("shard: replica %d: %w", i, err)
		}
		rep := &replica{srv: srv}
		rep.alive.Store(true)
		rt.replicas = append(rt.replicas, rep)
	}
	if base != nil {
		rcfg := cfg.Refresh
		rcfg.Totals = sinks.TrafficMatrix
		rcfg.OnSwap = rt.fanOut
		ref, err := serve.NewRefresher(rt.replicas[0].srv, base, rcfg)
		if err != nil {
			sinks.Close()
			return nil, err
		}
		rt.ref = ref
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/ingest", rt.withDeadline(rt.handleIngest))
	for _, path := range []string{"/v1/classify", "/v1/forecast", "/v1/plan"} {
		rt.mux.HandleFunc(path, rt.withDeadline(rt.forwardPOST(path)))
	}
	rt.mux.HandleFunc("/v1/model", rt.withDeadline(rt.handleModel))
	rt.mux.HandleFunc("/v1/stats", rt.handleStats)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.httpSrv = &http.Server{Handler: rt.mux, ReadHeaderTimeout: 5 * time.Second}
	return rt, nil
}

// fanOut publishes the refresher's newly swapped snapshot to every other
// live replica. The pointer is shared, not copied: ModelSnapshot is
// immutable after construction, so replicas serving the same pointer is
// exactly the protocol — identical revision, identical verdicts. Runs
// synchronously inside RefreshOnce (the OnSwap seam), so when a refresh
// returns, every live replica already serves the new revision.
func (rt *Router) fanOut(snap *serve.ModelSnapshot, res *analysis.Result) {
	start := time.Now()
	for i, rep := range rt.replicas {
		if i == 0 || !rep.alive.Load() {
			continue // replica 0 is the refresh primary: already swapped
		}
		if err := rep.srv.SwapSnapshot(snap); err != nil {
			continue
		}
		rt.reg.Add("shard.fanout.swaps", 1)
	}
	lag := msSince(start)
	rt.reg.ObserveMS("shard.fanout.lag.ms", lag)
	rt.lastFanoutMS.Store(math.Float64bits(lag))
}

// Start binds the replicas and then the router listener. Returns once
// everything is bound; use Addr for the router address.
func (rt *Router) Start() error {
	var err error
	rt.startOnce.Do(func() {
		for i, rep := range rt.replicas {
			if err = rep.srv.Start(); err != nil {
				err = fmt.Errorf("shard: replica %d: %w", i, err)
				return
			}
			rep.url = "http://" + rep.srv.Addr().String()
		}
		rt.ln, err = net.Listen("tcp", rt.cfg.Addr)
		if err != nil {
			err = fmt.Errorf("shard: listen %s: %w", rt.cfg.Addr, err)
			return
		}
		rt.tasks.Go(func() {
			// ErrServerClosed is the expected Shutdown outcome.
			_ = rt.httpSrv.Serve(rt.ln)
		})
		if rt.ref != nil && rt.cfg.Refresh.Interval > 0 {
			rt.ref.Start()
		}
	})
	return err
}

// Addr returns the router's bound address (nil before Start).
func (rt *Router) Addr() net.Addr {
	if rt.ln == nil {
		return nil
	}
	return rt.ln.Addr()
}

// URL returns the router's base URL (empty before Start).
func (rt *Router) URL() string {
	if rt.ln == nil {
		return ""
	}
	return "http://" + rt.ln.Addr().String()
}

// Ring exposes the placement ring (read-side: occupancy, digest).
func (rt *Router) Ring() *Ring { return rt.ring }

// Refresher returns the attached refresh controller (nil when the router
// was built without a base result).
func (rt *Router) Refresher() *serve.Refresher { return rt.ref }

// ResultFor resolves a served revision to the offline result that
// produced it, through the attached refresher's registry.
func (rt *Router) ResultFor(revision uint64) (*analysis.Result, bool) {
	if rt.ref == nil {
		return nil, false
	}
	return rt.ref.ResultFor(revision)
}

// RefreshOnce drives one fold → retrain → swap → fan-out cycle.
func (rt *Router) RefreshOnce(ctx context.Context) (serve.RefreshOutcome, error) {
	if rt.ref == nil {
		return serve.RefreshOutcome{}, errors.New("shard: router has no refresh controller")
	}
	return rt.ref.RefreshOnce(ctx)
}

// KillShard removes one shard mid-flight: the ring stops placing keys on
// it, its queue drains every acked batch into its sink (still counted in
// the merged totals), and in-flight offers against it turn into 429s whose
// retries re-place against the updated ring.
func (rt *Router) KillShard(id int) error { return rt.sinks.Kill(id) }

// KillReplica shuts one replica down and removes it from routing.
// In-flight proxies to it fail over to the survivors. Killing the last
// live replica is refused; killing replica 0 leaves refresh functional
// (swaps still register and fan out to the survivors).
func (rt *Router) KillReplica(ctx context.Context, i int) error {
	if i < 0 || i >= len(rt.replicas) {
		return fmt.Errorf("shard: no replica %d", i)
	}
	live := 0
	for _, rep := range rt.replicas {
		if rep.alive.Load() {
			live++
		}
	}
	rep := rt.replicas[i]
	if !rep.alive.Load() {
		return fmt.Errorf("shard: replica %d already dead", i)
	}
	if live == 1 {
		return fmt.Errorf("shard: cannot kill the last live replica %d", i)
	}
	rep.alive.Store(false)
	rt.reg.Add("shard.replica.kills", 1)
	return rep.srv.Shutdown(ctx)
}

// Replica exposes a replica's server for invariant checks (snapshot
// revision comparisons); returns nil for out-of-range indices.
func (rt *Router) Replica(i int) *serve.Server {
	if i < 0 || i >= len(rt.replicas) {
		return nil
	}
	return rt.replicas[i].srv
}

// Shutdown stops intake, drains every shard queue (folding all acked
// batches), and shuts the live replicas down. After Shutdown returns,
// FoldedRecords equals the total records ever acked with 202.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	rt.stopOnce.Do(func() {
		rt.draining.Store(true)
		if rt.ln != nil {
			err = rt.httpSrv.Shutdown(ctx)
		}
		if rt.ref != nil {
			rt.ref.Stop()
		}
		rt.sinks.Close()
		for _, rep := range rt.replicas {
			if !rep.alive.Load() {
				continue
			}
			if e := rep.srv.Shutdown(ctx); e != nil && err == nil {
				err = e
			}
		}
		rt.tasks.Wait()
	})
	return err
}

// Metrics returns the registry holding the router's own series (ingest,
// proxy, fan-out and kill counters): what its /metrics renders ahead of the
// process-wide ones, and what Stats reads.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Sinks exposes the sharded aggregation tier (parity and durability
// checks read folded/pending counts through it).
func (rt *Router) Sinks() *Sinks { return rt.sinks }

// withDeadline wraps a handler with the per-request context deadline.
func (rt *Router) withDeadline(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// handleIngest parses one probe batch, partitions it across the ring, and
// acks 202 only once every sub-batch is enqueued (all-or-nothing). A full,
// closed, or killed target shard rejects the whole batch with 429 so the
// retried batch re-partitions against the updated ring.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST a probe stream")
		return
	}
	batch, err := serve.ReadProbeBatch(w, r, rt.cfg.MaxBodyBytes, rt.cfg.MaxIngestRecords)
	if err != nil {
		if errors.Is(err, serve.ErrMalformedStream) {
			rt.reg.Add("shard.ingest.malformed", 1)
		}
		return
	}
	// Injected ingest latency lands before the ack, mirroring the
	// single-node server: a spike can 503 a request but never lose an
	// acked batch.
	if err := rt.cfg.Faults.Wait(r.Context(), fault.Ingest); err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "deadline exceeded: %v", err)
		return
	}
	if rt.draining.Load() {
		serve.WriteError(w, http.StatusServiceUnavailable, "router is shutting down")
		return
	}
	subs := rt.sinks.Partition(batch)
	if !rt.sinks.Offer(subs) {
		rt.reg.Add("shard.ingest.rejected", 1)
		serve.WriteRetryLater(w, rt.cfg.RetryAfter, "a target shard queue is full or gone, retry")
		return
	}
	rt.reg.Add("shard.ingest.batches", 1)
	rt.reg.Add("shard.ingest.records", int64(len(batch)))
	rt.reg.ObserveMS("shard.ingest.latency.ms", msSince(startAt))
	serve.WriteJSON(w, http.StatusAccepted, map[string]int{"accepted": len(batch), "shards": len(subs)})
}

// forwardPOST returns the handler for a JSON endpoint the replicas serve
// (classify, forecast, plan): it reads the bounded body and proxies it to a
// live replica, rotating the starting replica per request and failing over
// on transport errors. The replica's response — status, revision echo,
// payload — passes through verbatim, so parity audits see exactly what the
// replica served; every replica shares the snapshot pointer, so any of them
// answers with the same revision and bit-exact values.
func (rt *Router) forwardPOST(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			serve.WriteError(w, http.StatusMethodNotAllowed, "POST a JSON request to %s", path)
			return
		}
		body, err := serve.ReadBody(w, r, rt.cfg.MaxBodyBytes)
		if err != nil {
			serve.WriteBodyError(w, err)
			return
		}
		rt.proxy(w, r, path, body)
	}
}

// handleModel proxies snapshot metadata from a live replica.
func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, "/v1/model", nil)
}

// ReplicaHeader names the response header in which the router reports the
// index of the replica that answered a proxied request.
const ReplicaHeader = "X-Icn-Replica"

// proxy forwards to live replicas starting at the round-robin cursor,
// advancing past dead replicas and transport failures. Every failover is
// counted; exhausting the replica set answers 503. A relayed response
// names its replica in ReplicaHeader.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string, body []byte) {
	n := len(rt.replicas)
	start := int(rt.rr.Add(1)) % n
	var lastErr error
	for off := 0; off < n; off++ {
		idx := (start + off) % n
		rep := rt.replicas[idx]
		if !rep.alive.Load() {
			continue
		}
		var reqBody io.Reader
		method := http.MethodGet
		if body != nil {
			reqBody = bytes.NewReader(body)
			method = http.MethodPost
		}
		req, err := http.NewRequestWithContext(r.Context(), method, rep.url+path, reqBody)
		if err != nil {
			serve.WriteError(w, http.StatusInternalServerError, "proxy request: %v", err)
			return
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			rt.reg.Add("shard.router.failovers", 1)
			continue
		}
		rt.reg.Add("shard.router.proxied", 1)
		w.Header().Set(ReplicaHeader, strconv.Itoa(idx))
		copyResponse(w, resp)
		return
	}
	serve.WriteError(w, http.StatusServiceUnavailable, "no live replica: %v", lastErr)
}

// copyResponse relays a replica response to the client verbatim: status,
// body and the headers a client reads.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", serve.RevisionHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// RingStats summarizes placement state for /v1/stats.
type RingStats struct {
	Shards    int       `json:"shards"`
	Alive     int       `json:"alive"`
	Occupancy []float64 `json:"occupancy"`
	Digest    string    `json:"digest"`
}

// ReplicaStats is one replica's routing and serving state.
type ReplicaStats struct {
	Addr     string `json:"addr"`
	Alive    bool   `json:"alive"`
	Revision uint64 `json:"revision"`
}

// RouterStats is the /v1/stats payload: acked-batch accounting, proxy
// traffic, ring placement, per-shard queues, and per-replica revisions.
type RouterStats struct {
	AckedBatches      int64              `json:"acked_batches"`
	AckedRecords      int64              `json:"acked_records"`
	RejectedBatches   int64              `json:"rejected_batches"`
	MalformedStreams  int64              `json:"malformed_streams"`
	PendingRecords    int                `json:"pending_records"`
	FoldedRecords     int                `json:"folded_records"`
	ClassifyProxied   int64              `json:"classify_proxied"`
	ClassifyFailovers int64              `json:"classify_failovers"`
	LastFanoutMS      float64            `json:"last_fanout_ms"`
	Ring              RingStats          `json:"ring"`
	Shards            []SinkStats        `json:"shards"`
	Replicas          []ReplicaStats     `json:"replicas"`
	Refresh           *serve.RefreshInfo `json:"refresh,omitempty"`
}

// Stats snapshots the router's full state.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		AckedBatches:      rt.reg.Counter("shard.ingest.batches"),
		AckedRecords:      rt.reg.Counter("shard.ingest.records"),
		RejectedBatches:   rt.reg.Counter("shard.ingest.rejected"),
		MalformedStreams:  rt.reg.Counter("shard.ingest.malformed"),
		PendingRecords:    rt.sinks.PendingRecords(),
		FoldedRecords:     rt.sinks.FoldedRecords(),
		ClassifyProxied:   rt.reg.Counter("shard.router.proxied"),
		ClassifyFailovers: rt.reg.Counter("shard.router.failovers"),
		LastFanoutMS:      math.Float64frombits(rt.lastFanoutMS.Load()),
		Ring: RingStats{
			Shards:    rt.ring.Shards(),
			Alive:     rt.ring.Alive(),
			Occupancy: rt.ring.Occupancy(),
			Digest:    fmt.Sprintf("%016x", rt.ring.Digest()),
		},
		Shards: rt.sinks.Stats(),
	}
	for _, rep := range rt.replicas {
		rs := ReplicaStats{Alive: rep.alive.Load(), Revision: rep.srv.Snapshot().Revision}
		if rep.srv.Addr() != nil {
			rs.Addr = rep.srv.Addr().String()
		}
		st.Replicas = append(st.Replicas, rs)
	}
	if rt.ref != nil {
		info := rt.ref.Info()
		st.Refresh = &info
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the router's own series and the process-wide
// ones; each replica's /metrics renders that replica's.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteMetrics(w, rt.reg)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}
