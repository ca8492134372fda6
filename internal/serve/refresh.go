package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rca"
)

// refreshTimeout bounds one refresh run of the tick loop.
const refreshTimeout = 2 * time.Minute

// RefreshConfig parameterizes the continuous-refresh controller.
type RefreshConfig struct {
	// Interval is the tick period between refresh attempts (default 30s).
	Interval time.Duration
	// DriftThreshold is the reassigned-antenna fraction past which a warm
	// refresh escalates to a full re-linkage (default
	// analysis.DefaultDriftThreshold).
	DriftThreshold float64
	// History bounds the revision → offline-result registry consulted by
	// parity checks and post-swap audits (default 64 revisions). It is
	// also the byte bound: only the current revision is a full Result; a
	// superseded one is kept as Result.Slim (Config, K, Labels,
	// LabelAlignment, SurrogateAccuracy, OutdoorLabels, OutdoorShare,
	// Forecasts and the stage trace), whose fixed shape costs the label
	// vectors plus the forecast set per entry and pins no traffic matrix.
	History int
	// Logf, when set, receives one line per completed refresh attempt.
	Logf func(format string, args ...any)
	// OnSwap, when set, runs synchronously after RefreshOnce publishes a
	// new snapshot to the attached server — the snapshot-distribution seam
	// the sharded router uses to fan the same revision out to its replicas.
	// The snapshot is shared with the serving path and must not be
	// mutated. The revision's offline result is not handed out: its audit
	// is still running at swap time (ResultFor waits for it).
	OnSwap func(snap *ModelSnapshot)
}

func (c RefreshConfig) withDefaults() RefreshConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = analysis.DefaultDriftThreshold
	}
	if c.History <= 0 {
		c.History = 64
	}
	return c
}

// RefreshInfo is the point-in-time refresh telemetry served under
// /v1/model. Runs, Skipped, Escalations and Errors are read from the
// server's registry (the serve.refresh.* counters); the rest is kept by
// the refresher. LastDurationMS is the last run's publish latency: the
// RefreshOnce call from fold to fan-out, without the audit that follows.
// LastStages is the stage trace of the last completed refresh run, in
// completion order; the audit's "outdoor" stage joins it, marked
// AfterPublish, once the audit lands.
type RefreshInfo struct {
	Runs           int64   `json:"runs"`
	Swaps          int64   `json:"swaps"`
	Skipped        int64   `json:"skipped"`
	Escalations    int64   `json:"escalations"`
	Errors         int64   `json:"errors"`
	LastDrift      float64 `json:"last_drift"`
	LastReassigned int     `json:"last_reassigned"`
	LastDurationMS float64 `json:"last_duration_ms"`
	LastRevision   uint64  `json:"last_revision"`

	LastStages []RefreshStage `json:"last_stages,omitempty"`
}

// RefreshStage is one pipeline stage of a refresh run: its wall time, how
// long it waited behind its dependencies (obs.StageTrace), and whether it
// ran after the revision was published (the outdoor-verdict audit).
type RefreshStage struct {
	Name         string  `json:"name"`
	WallMS       float64 `json:"wall_ms"`
	WaitedMS     float64 `json:"waited_ms"`
	AfterPublish bool    `json:"after_publish"`
}

// RefreshOutcome reports one RefreshOnce call.
type RefreshOutcome struct {
	// Revision is the snapshot revision current after the call.
	Revision uint64
	// Swapped is true when a new snapshot was published; Skipped is true
	// when no aggregates landed since the last refresh and the pipeline
	// was not run at all.
	Swapped bool
	Skipped bool
	// Stats carries the warm pipeline's drift accounting.
	Stats analysis.RefreshStats
	// Duration is the publish latency: the call's wall time, which ends
	// once every replica serves the new snapshot, before its audit.
	Duration time.Duration
}

// Refresher closes the ingest → retrain → swap loop: on every tick it folds
// the server's ingest-tier totals, merged over every shard, over the
// training campaign's traffic matrix (rca.Accumulator), runs the warm
// pipeline on the rows that changed (analysis.WarmRefreshContext,
// escalating past the drift threshold), and publishes the retrained model
// through SwapSnapshot. All work happens off the request path on the
// process-shared worker pool; the only goroutines are the tick loop and
// one audit job per published revision, spawned via pipe.Tasks per the
// poolgo contract.
//
// Every published revision's offline result is retained in a bounded
// registry (ResultFor), so any served response echoing a revision can be
// audited against the exact offline result that produced it. The
// registry entry is a pending slot first: RefreshOnce reserves it under
// the same lock as the swap and returns once the snapshot is served
// everywhere; the audit job then computes the revision's outdoor verdicts
// (Result.ClassifyOutdoor) and only then registers the complete result.
// ResultFor of a pending revision waits for the slot, and the next
// refresh waits for it before it starts from that result. Only the
// current revision's entry is the full Result (the next warm refresh
// starts from its surrogate); a superseded revision's entry is replaced
// by its Result.Slim copy, which keeps the audit surface and drops the
// revision's traffic matrix.
type Refresher struct {
	srv *Server
	cfg RefreshConfig
	acc *rca.Accumulator
	// lastGood re-arms the accumulator's dirty tracking after a failed
	// refresh, so the aggregates that run saw are retried next tick.
	lastGood *mat.Dense

	// refreshMu serializes refresh runs (tick loop + manual RefreshOnce).
	refreshMu sync.Mutex

	// mu guards the revision registry and the telemetry no counter
	// carries. The serve.refresh.* counters are bumped and the swap is
	// published under it too, so Info reads one consistent refresh. cur
	// is the full result of info.LastRevision, nil while that revision's
	// audit is pending; audit is that revision's registry slot, nil once
	// the audit has landed.
	mu      sync.Mutex
	cur     *analysis.Result
	history map[uint64]*analysis.Result
	order   []uint64
	info    RefreshInfo
	audit   *auditSlot

	tasks     pipe.Tasks
	stop      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewRefresher wires a refresh controller to a server and the offline
// result its current snapshot was built from. The base result's revision is
// registered immediately, so parity audits can resolve responses served
// before the first refresh.
func NewRefresher(srv *Server, base *analysis.Result, cfg RefreshConfig) (*Refresher, error) {
	if srv == nil {
		return nil, fmt.Errorf("serve: refresher needs a server")
	}
	if base == nil || base.Surrogate == nil || base.Dataset == nil || base.Dataset.Traffic == nil {
		return nil, fmt.Errorf("serve: refresher needs a completed pipeline result")
	}
	cfg = cfg.withDefaults()
	acc, err := rca.NewAccumulator(base.Dataset.Traffic)
	if err != nil {
		return nil, fmt.Errorf("serve: refresher: %w", err)
	}
	snap, err := NewModelSnapshot(base)
	if err != nil {
		return nil, fmt.Errorf("serve: refresher: %w", err)
	}
	r := &Refresher{
		srv:      srv,
		cfg:      cfg,
		acc:      acc,
		lastGood: mat.NewDense(base.Dataset.Traffic.Rows(), base.Dataset.Traffic.Cols()),
		cur:      base,
		history:  map[uint64]*analysis.Result{},
		stop:     make(chan struct{}),
	}
	r.mu.Lock()
	r.register(snap.Revision, base)
	r.info.LastRevision = snap.Revision
	r.mu.Unlock()
	srv.refresh.Store(r)
	return r, nil
}

// auditSlot is a published revision's pending registry entry: done closes
// once its audit job has registered the complete result, or has failed
// and left the revision unresolvable.
type auditSlot struct {
	revision uint64
	done     chan struct{}
}

// wait blocks until the slot resolves or ctx is done.
func (a *auditSlot) wait(ctx context.Context) error {
	select {
	case <-a.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// register retains a revision's offline result, evicting the oldest entry
// past the history bound. Callers hold r.mu.
func (r *Refresher) register(revision uint64, res *analysis.Result) {
	if _, ok := r.history[revision]; !ok {
		r.order = append(r.order, revision)
		for len(r.order) > r.cfg.History {
			delete(r.history, r.order[0])
			r.order = r.order[1:]
		}
	}
	r.history[revision] = res
}

// ResultFor returns the offline pipeline result that produced the given
// snapshot revision, if it is still within the history bound. A revision
// whose audit is still pending blocks the call until the audit lands; a
// failed audit leaves the revision unresolved. The current revision
// resolves to its full Result, so a forecast refit (RefitForecasts) must
// run while the revision is current. A superseded revision resolves to
// its Result.Slim copy: Config, K, Labels, LabelAlignment,
// SurrogateAccuracy, OutdoorLabels, OutdoorShare, Forecasts and the stage
// trace are set, so verdict audits, forecast digests and Trace work, but
// Dataset, Surrogate and RSCA are nil: RefitForecasts returns an error
// and NewModelSnapshot rejects it.
func (r *Refresher) ResultFor(revision uint64) (*analysis.Result, bool) {
	if a := r.pendingAudit(); a != nil && a.revision == revision {
		// The audit job always finishes (it runs uncancelled), and this
		// signature carries no context to give up with.
		_ = a.wait(context.TODO())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.history[revision]
	return res, ok
}

// Info snapshots the refresh telemetry.
func (r *Refresher) Info() RefreshInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := r.info
	info.LastStages = slices.Clone(r.info.LastStages)
	reg := r.srv.reg
	info.Runs = reg.Counter("serve.refresh.runs")
	info.Skipped = reg.Counter("serve.refresh.skipped")
	info.Escalations = reg.Counter("serve.refresh.escalations")
	info.Errors = reg.Counter("serve.refresh.errors")
	return info
}

// Start launches the tick loop. Safe to call once; Stop tears it down.
func (r *Refresher) Start() {
	r.startOnce.Do(func() {
		r.tasks.Go(r.loop)
	})
}

// Stop halts the tick loop and waits for an in-flight refresh and every
// audit job it started to finish, so each revision published by then
// resolves through ResultFor. The server keeps serving whatever snapshot
// is current.
func (r *Refresher) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
	})
	// A RefreshOnce in flight on another goroutine starts its audit job
	// before it releases refreshMu; that job must be tracked before Wait.
	r.refreshMu.Lock()
	r.refreshMu.Unlock()
	r.tasks.Wait()
}

// pendingAudit returns the registry slot of the revision whose audit is
// running, or nil.
func (r *Refresher) pendingAudit() *auditSlot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.audit
}

func (r *Refresher) loop() {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), refreshTimeout)
			out, err := r.RefreshOnce(ctx)
			cancel()
			if r.cfg.Logf == nil {
				continue
			}
			switch {
			case err != nil:
				r.cfg.Logf("refresh failed: %v", err)
			case out.Skipped:
				// Quiet: nothing landed since the last refresh.
			case out.Swapped:
				r.cfg.Logf("refresh swapped in revision %016x (drift %.4f, reassigned %d, escalated %v) in %s",
					out.Revision, out.Stats.Drift, out.Stats.Reassigned, out.Stats.Escalated, out.Duration.Round(time.Millisecond))
			default:
				r.cfg.Logf("refresh converged on revision %016x (drift %.4f)", out.Revision, out.Stats.Drift)
			}
		}
	}
}

// RefreshOnce runs a single fold → warm retrain → swap cycle. It is safe
// to call concurrently with the tick loop (runs serialize) and returns the
// outcome of this attempt as soon as the new snapshot is served (and, with
// OnSwap, fanned out); the revision's outdoor-verdict audit then runs on
// its own job (see Refresher). A refresh whose retrained snapshot
// fingerprints to the currently served revision publishes nothing.
func (r *Refresher) RefreshOnce(ctx context.Context) (RefreshOutcome, error) {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	start := time.Now()
	var out RefreshOutcome
	out.Revision = r.srv.Snapshot().Revision

	// The previous revision's audit sets r.cur, and the slim copy below
	// must carry its verdicts: let it land first.
	if a := r.pendingAudit(); a != nil {
		if err := a.wait(ctx); err != nil {
			return out, r.fail(err)
		}
	}

	totals := r.srv.ingest.TrafficMatrix(r.acc.Rows(), r.acc.Cols())
	if err := r.acc.SetTotals(totals); err != nil {
		return out, r.fail(err)
	}
	traffic, dirty := r.acc.Materialize()
	if len(dirty) == 0 {
		r.mu.Lock()
		r.srv.reg.Add("serve.refresh.skipped", 1)
		r.mu.Unlock()
		out.Skipped = true
		out.Duration = time.Since(start)
		return out, nil
	}

	r.mu.Lock()
	prev := r.cur
	r.mu.Unlock()
	ctx = pipe.WithPool(ctx, pipe.Shared())
	wres, st, err := analysis.WarmRefreshContext(ctx, prev, traffic, dirty,
		analysis.WarmConfig{DriftThreshold: r.cfg.DriftThreshold})
	out.Stats = st
	if err != nil {
		r.rearm()
		return out, r.fail(err)
	}
	snap, err := NewModelSnapshot(wres)
	if err != nil {
		r.rearm()
		return out, r.fail(err)
	}

	// Read the trace while wres is still private: Trace initializes it
	// lazily, and a registered result is frozen.
	stages := refreshStages(wres)
	slim := prev.Slim()
	reg := r.srv.reg
	slot := &auditSlot{revision: snap.Revision, done: make(chan struct{})}

	// Publish and count under mu: a reader that sees the new revision
	// served and then asks Info finds the swap already counted, and one
	// that asks ResultFor finds the revision's pending slot.
	r.mu.Lock()
	swapped := snap.Revision != r.srv.Snapshot().Revision
	if swapped {
		if err := r.srv.SwapSnapshot(snap); err != nil {
			reg.Add("serve.refresh.errors", 1)
			r.mu.Unlock()
			return out, err
		}
	}
	r.audit = slot
	for i := 0; i < totals.Rows(); i++ {
		copy(r.lastGood.Row(i), totals.Row(i))
	}

	// prev is superseded: its audit fields stay resolvable, but its
	// traffic matrix, forest, RSCA and caches are no longer pinned by the
	// registry. cur stays nil until wres's audit lands.
	if prevRev := r.info.LastRevision; prevRev != snap.Revision && r.history[prevRev] == prev {
		r.history[prevRev] = slim
	}
	r.cur = nil
	reg.Add("serve.refresh.runs", 1)
	reg.Add("serve.refresh.reassigned", int64(st.Reassigned))
	reg.Add("serve.refresh.forest.scanned", st.ForestScanned)
	reg.Add("serve.refresh.forest.reused", st.ForestReused)
	if swapped {
		r.info.Swaps++
	}
	if st.Escalated {
		reg.Add("serve.refresh.escalations", 1)
	}
	r.info.LastDrift = st.Drift
	r.info.LastReassigned = st.Reassigned
	r.info.LastDurationMS = msSince(start)
	r.info.LastRevision = snap.Revision
	r.info.LastStages = stages
	r.mu.Unlock()

	if swapped && r.cfg.OnSwap != nil {
		r.cfg.OnSwap(snap)
	}
	// The tick loop cancels ctx as soon as this call returns; the audit
	// must outlive it.
	actx := context.WithoutCancel(ctx)
	r.tasks.Go(func() { r.auditRevision(actx, slot, wres, len(stages)) })
	out.Revision = snap.Revision
	out.Swapped = swapped
	out.Duration = time.Since(start)
	reg.ObserveMS("serve.refresh.latency.ms", msSince(start))
	return out, nil
}

// auditRevision computes a published revision's outdoor verdicts off the
// publish path, then registers the complete result as the current one and
// resolves the revision's slot. published is how many stages res's trace
// held at publish time; the stages recorded after it are marked
// AfterPublish. A failed audit counts serve.refresh.errors and leaves the
// revision unregistered; res still becomes the next refresh's base.
func (r *Refresher) auditRevision(ctx context.Context, slot *auditSlot, res *analysis.Result, published int) {
	defer close(slot.done)
	start := time.Now()
	err := res.ClassifyOutdoor(ctx)
	stages := refreshStages(res)
	for i := published; i < len(stages); i++ {
		stages[i].AfterPublish = true
	}
	reg := r.srv.reg
	r.mu.Lock()
	if err == nil {
		r.register(slot.revision, res)
	} else {
		reg.Add("serve.refresh.errors", 1)
	}
	r.cur = res
	r.audit = nil
	r.info.LastStages = stages
	reg.ObserveMS("serve.refresh.audit.ms", msSince(start))
	r.mu.Unlock()
	if err != nil && r.cfg.Logf != nil {
		r.cfg.Logf("refresh audit of revision %016x failed: %v", slot.revision, err)
	}
}

// refreshStages converts a refresh result's stage trace for RefreshInfo.
func refreshStages(res *analysis.Result) []RefreshStage {
	trace := res.Trace().Stages()
	out := make([]RefreshStage, len(trace))
	for i, st := range trace {
		out[i] = RefreshStage{
			Name:     st.Name,
			WallMS:   float64(st.Wall) / float64(time.Millisecond),
			WaitedMS: float64(st.Waited) / float64(time.Millisecond),
		}
	}
	return out
}

// fail counts a refresh error in telemetry and passes it through.
func (r *Refresher) fail(err error) error {
	r.mu.Lock()
	r.srv.reg.Add("serve.refresh.errors", 1)
	r.mu.Unlock()
	return err
}

// rearm rewinds the accumulator's dirty tracking to the last successful
// refresh, so aggregates seen by a failed run are retried next tick
// instead of being silently marked applied.
func (r *Refresher) rearm() {
	if err := r.acc.SetTotals(r.lastGood); err != nil {
		return
	}
	r.acc.Materialize()
}
