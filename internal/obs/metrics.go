package obs

// This file is the module's metric catalog: the single registry of every
// counter and histogram name the system emits. The metricreg analyzer
// (internal/lint) statically checks the call sites against this table —
// every obs.Add / obs.ObserveMS name literal in the module must appear
// here exactly once, with the matching kind, and every non-dynamic entry
// must have at least one call site — so /metrics cannot silently grow
// unregistered series or carry dead registrations. At runtime the catalog
// seeds the registries (see newRegistry), so every registered metric is
// present on /metrics from the first scrape, at zero, instead of appearing
// only after its first increment. The Instance column splits the catalog
// between obs.Default and the per-instance registries.

// MetricKind distinguishes the two registry shapes.
type MetricKind string

const (
	// KindCounter is a monotonically increasing named counter (obs.Add).
	KindCounter MetricKind = "counter"
	// KindHistogram is a fixed-bucket latency histogram (obs.ObserveMS /
	// obs.GetHistogram).
	KindHistogram MetricKind = "histogram"
)

// MetricDef is one catalog entry. Name is the registry name; the exported
// Prometheus name is derived from it ("icn_" prefix, non-alphanumerics to
// underscores — see metricName).
type MetricDef struct {
	// Name is the registry name passed to Add / ObserveMS.
	Name string
	// Kind selects the registry.
	Kind MetricKind
	// Help is a one-line description for documentation.
	Help string
	// Dynamic marks names composed at runtime from a closed enum (the
	// fault injector's per-site counters). Dynamic entries are exempt from
	// the metricreg "must have a static call site" check; their call sites
	// carry a //lint:allow metricreg annotation instead.
	Dynamic bool
	// Instance marks a series one serve.Server or shard.Router owns, in
	// its own Registry (NewRegistry); unmarked entries live in Default.
	// metricreg rejects a call site in the wrong registry.
	Instance bool
	// Buckets overrides a histogram's bucket upper bounds (default:
	// DefaultLatencyBuckets). Because the registry is first-caller-wins and
	// seeds every cataloged metric, non-latency histograms (queue
	// depths, ring occupancy shares) must declare their bounds here rather
	// than at a call site.
	Buckets []float64
}

// Catalog lists every metric the module emits. Keep it sorted by name
// within each group; metricreg rejects duplicates, unregistered call
// sites, kind or scope mismatches, and non-dynamic entries with no call
// site.
var Catalog = []MetricDef{
	// Pipeline engine.
	{Name: "pipe.foreach", Kind: KindCounter, Help: "pool fan-out calls"},
	{Name: "pipe.items", Kind: KindCounter, Help: "work items distributed across the pool"},
	{Name: "pipe.stages", Kind: KindCounter, Help: "pipeline stages executed"},
	{Name: "pipe.tasks", Kind: KindCounter, Help: "tracked auxiliary goroutines spawned"},

	// Serving: ingest.
	{Name: "serve.ingest.batches", Kind: KindCounter, Instance: true, Help: "probe batches acked (202)"},
	{Name: "serve.ingest.folded", Kind: KindCounter, Instance: true, Help: "records folded into the aggregate by drain workers"},
	{Name: "serve.ingest.latency.ms", Kind: KindHistogram, Instance: true, Help: "ingest handler latency"},
	{Name: "serve.ingest.malformed", Kind: KindCounter, Instance: true, Help: "malformed probe streams rejected"},
	{Name: "serve.ingest.records", Kind: KindCounter, Instance: true, Help: "probe records acked"},
	{Name: "serve.ingest.rejected", Kind: KindCounter, Instance: true, Help: "batches rejected with 429 backpressure"},

	// Serving: classify.
	{Name: "serve.classify.antennas", Kind: KindCounter, Instance: true, Help: "traffic vectors classified"},
	{Name: "serve.classify.cache.hits", Kind: KindCounter, Instance: true, Help: "verdicts served from the revision LRU"},
	{Name: "serve.classify.cache.misses", Kind: KindCounter, Instance: true, Help: "verdicts that ran the model"},
	{Name: "serve.classify.decode.ms", Kind: KindHistogram, Instance: true, Help: "classify body decode time (DecodeClassify), one observation per body"},
	{Name: "serve.classify.latency.ms", Kind: KindHistogram, Instance: true, Help: "classify handler latency"},
	{Name: "serve.classify.requests", Kind: KindCounter, Instance: true, Help: "classify requests"},

	// Serving: forecast + capacity planning.
	{Name: "serve.forecast.cache.hits", Kind: KindCounter, Instance: true, Help: "forecasts served from the revision LRU"},
	{Name: "serve.forecast.cache.misses", Kind: KindCounter, Instance: true, Help: "forecasts computed from the model set"},
	{Name: "serve.forecast.latency.ms", Kind: KindHistogram, Instance: true, Help: "forecast handler latency"},
	{Name: "serve.forecast.requests", Kind: KindCounter, Instance: true, Help: "forecast requests"},
	{Name: "serve.plan.latency.ms", Kind: KindHistogram, Instance: true, Help: "plan handler latency"},
	{Name: "serve.plan.requests", Kind: KindCounter, Instance: true, Help: "capacity-planning scenario requests"},

	// Serving: model lifecycle.
	{Name: "serve.model.swaps", Kind: KindCounter, Instance: true, Help: "snapshot swaps published"},
	{Name: "serve.refresh.errors", Kind: KindCounter, Instance: true, Help: "refresh attempts that failed"},
	{Name: "serve.refresh.escalations", Kind: KindCounter, Instance: true, Help: "warm refreshes escalated to full re-linkage"},
	{Name: "serve.refresh.latency.ms", Kind: KindHistogram, Instance: true, Help: "end-to-end refresh duration"},
	{Name: "serve.refresh.reassigned", Kind: KindCounter, Instance: true, Help: "antennas reassigned across refreshes"},
	{Name: "serve.refresh.runs", Kind: KindCounter, Instance: true, Help: "completed refresh runs"},
	{Name: "serve.refresh.skipped", Kind: KindCounter, Instance: true, Help: "refresh ticks with no new aggregates"},

	// Sharded ingest + replicated serving (internal/shard).
	{Name: "shard.fanout.lag.ms", Kind: KindHistogram, Instance: true, Help: "snapshot fan-out lag behind the primary swap"},
	{Name: "shard.fanout.swaps", Kind: KindCounter, Instance: true, Help: "replica snapshot swaps fanned out after a refresh"},
	{Name: "shard.fold.records", Kind: KindCounter, Instance: true, Help: "records folded into per-shard sinks by drain workers"},
	{Name: "shard.ingest.batches", Kind: KindCounter, Instance: true, Help: "sharded probe batches acked (202) by the router"},
	{Name: "shard.ingest.latency.ms", Kind: KindHistogram, Instance: true, Help: "router ingest handler latency"},
	{Name: "shard.ingest.malformed", Kind: KindCounter, Instance: true, Help: "malformed probe streams rejected by the router"},
	{Name: "shard.ingest.records", Kind: KindCounter, Instance: true, Help: "sharded probe records acked by the router"},
	{Name: "shard.ingest.rejected", Kind: KindCounter, Instance: true, Help: "batches rejected with 429 router backpressure"},
	{Name: "shard.kills", Kind: KindCounter, Instance: true, Help: "shards killed: drained and removed from the ring"},
	{Name: "shard.queue.depth", Kind: KindHistogram, Instance: true, Help: "per-shard queue depth in batches, sampled at enqueue",
		Buckets: []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}},
	{Name: "shard.replica.kills", Kind: KindCounter, Instance: true, Help: "serve replicas killed and removed from routing"},
	{Name: "shard.ring.changes", Kind: KindCounter, Help: "ring membership changes (shard added or removed)"},
	{Name: "shard.ring.occupancy", Kind: KindHistogram, Help: "per-alive-shard share of the hash space, observed at each membership change",
		Buckets: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1}},
	{Name: "shard.router.failovers", Kind: KindCounter, Instance: true, Help: "proxied requests retried on another replica"},
	{Name: "shard.router.proxied", Kind: KindCounter, Instance: true, Help: "requests proxied to serve replicas"},

	// Fault injection: one errs/delays pair per fault.Site, with the name
	// composed at the injection site ("fault." + site + suffix).
	{Name: "fault.conn.read.delays", Kind: KindCounter, Help: "injected read delays", Dynamic: true},
	{Name: "fault.conn.read.errs", Kind: KindCounter, Help: "injected read errors", Dynamic: true},
	{Name: "fault.conn.write.delays", Kind: KindCounter, Help: "injected write delays", Dynamic: true},
	{Name: "fault.conn.write.errs", Kind: KindCounter, Help: "injected write errors", Dynamic: true},
	{Name: "fault.dial.delays", Kind: KindCounter, Help: "injected dial delays", Dynamic: true},
	{Name: "fault.dial.errs", Kind: KindCounter, Help: "injected dial errors", Dynamic: true},
	{Name: "fault.pipe.stage.delays", Kind: KindCounter, Help: "injected stage delays", Dynamic: true},
	{Name: "fault.pipe.stage.errs", Kind: KindCounter, Help: "injected stage errors", Dynamic: true},
	{Name: "fault.serve.classify.delays", Kind: KindCounter, Help: "injected classify delays", Dynamic: true},
	{Name: "fault.serve.classify.errs", Kind: KindCounter, Help: "injected classify errors", Dynamic: true},
	{Name: "fault.serve.fold.delays", Kind: KindCounter, Help: "injected drain-fold delays", Dynamic: true},
	{Name: "fault.serve.fold.errs", Kind: KindCounter, Help: "injected drain-fold errors", Dynamic: true},
	{Name: "fault.serve.ingest.delays", Kind: KindCounter, Help: "injected ingest delays", Dynamic: true},
	{Name: "fault.serve.ingest.errs", Kind: KindCounter, Help: "injected ingest errors", Dynamic: true},
	{Name: "fault.shard.fold.delays", Kind: KindCounter, Help: "injected shard-fold delays", Dynamic: true},
	{Name: "fault.shard.fold.errs", Kind: KindCounter, Help: "injected shard-fold errors", Dynamic: true},
}
