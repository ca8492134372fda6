// Package icn is the public API of the reproduction of "Characterizing
// Mobile Service Demands at Indoor Cellular Networks" (IMC '23). It exposes
// the full analysis pipeline — synthetic nationwide dataset generation,
// RCA/RSCA feature transformation, Ward agglomerative clustering with
// Silhouette/Dunn model selection, a random-forest surrogate explained with
// TreeSHAP, environment association, the indoor/outdoor comparison, and
// temporal profiling — plus an experiment suite that regenerates every
// table and figure of the paper's evaluation, and the online serving path
// that classifies new antennas against a trained snapshot.
//
// # Stable API
//
// External callers use this package alone; nothing under repro/internal is
// part of the contract. The stable surface is:
//
//   - Pipeline: Run (context-first, functional options WithDataset and
//     WithPool), Config, Result, GenerateDataset, Dataset, DatasetConfig.
//   - Experiments: NewSuite, Suite, Artifact, Check.
//   - Profiles: BuildProfiles, PlanSlices, Profile, ProfileOptions,
//     SlicePlan.
//   - Observability: Trace and StageTrace (per-stage wall/queue/alloc
//     records, from Result.Trace), Pool and NewPool (bounded worker pool,
//     attach with WithPool).
//   - Serving: NewModelSnapshot, ModelSnapshot, NewServer, Server,
//     ServeConfig, ServeStats, ClassifyRequest, AntennaVector,
//     ClassifyResponse, AntennaVerdict, and the continuous-refresh
//     controller NewRefresher, Refresher, RefreshConfig, RefreshInfo.
//   - Forecasting & planning: ForecastSet (per-cluster and per-antenna
//     busy-hour forecasters trained by every pipeline run, from
//     Result.Forecasts), ForecastRequest, ForecastResponse, PlanRequest,
//     PlanResponse, PlanAction, PlanResult — the /v1/forecast and
//     /v1/plan capacity-planning surface (see examples/planning).
//   - Sharded serving: NewRouter, Router, ShardConfig, RouterStats,
//     RingStats, ReplicaStats, ShardSinkStats, and the placement ring
//     NewRing, Ring, DefaultVirtualNodes — nationwide-scale ingest
//     partitioned across shard sinks behind replicated serve instances.
//
// Run is the only pipeline entrypoint: context-first, with functional
// options. The pre-option wrappers (RunContext, RunOnDataset,
// RunOnDatasetContext) have been removed; spell them as Run(ctx, cfg),
// Run(ctx, cfg, WithDataset(ds)) respectively.
//
// # Quick start
//
//	result, err := icn.Run(context.Background(), icn.Config{Seed: 1, Scale: 0.1})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println("clusters:", result.ClusterSizes())
//	fmt.Println("purity vs ground truth:", result.Purity())
//
// Cancel a run through the context, bound its parallelism with
// WithPool(NewPool(n)), share one generated dataset across runs with
// WithDataset, and read per-stage timings from result.Trace().
//
// To regenerate the paper's artifacts:
//
//	suite, err := icn.NewSuite(icn.Config{Seed: 1, Scale: 0.1})
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, artifact := range suite.All() {
//		fmt.Println(artifact.Title)
//		fmt.Println(artifact.Text)
//	}
//
// To serve a trained model online (see also cmd/icnserve):
//
//	snap, err := icn.NewModelSnapshot(result)
//	if err != nil {
//		log.Fatal(err)
//	}
//	srv, err := icn.NewServer(snap, icn.ServeConfig{Addr: "127.0.0.1:9470"})
//	if err != nil {
//		log.Fatal(err)
//	}
//	if err := srv.Start(); err != nil {
//		log.Fatal(err)
//	}
//	defer srv.Shutdown(context.Background())
//
// To run the sharded nationwide tier — N ingest shards on a consistent-hash
// ring behind M replicated serve instances all publishing one model
// revision (see also examples/sharding):
//
//	router, err := icn.NewRouter(snap, result, icn.ShardConfig{Shards: 4, Replicas: 2})
//	if err != nil {
//		log.Fatal(err)
//	}
//	if err := router.Start(); err != nil {
//		log.Fatal(err)
//	}
//	defer router.Shutdown(context.Background())
package icn

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

// Config parameterizes a pipeline run. The zero value runs the paper's
// full scale (4,762 indoor antennas, 22,000 outdoor, k = 9, 100 trees).
type Config = analysis.Config

// Result is the full pipeline output: features, dendrogram, clusters,
// surrogate model, environment association and outdoor classification.
type Result = analysis.Result

// Suite regenerates the paper's tables and figures from a pipeline run.
type Suite = experiments.Suite

// Artifact is one regenerated table or figure with its shape checks.
type Artifact = experiments.Artifact

// Check is one paper-shape assertion attached to an artifact.
type Check = experiments.Check

// Dataset is a generated synthetic measurement campaign.
type Dataset = synth.Dataset

// DatasetConfig parameterizes standalone dataset generation.
type DatasetConfig = synth.Config

// Trace is the per-stage observability record of a pipeline run: wall
// time, queueing delay, allocation delta and goroutine count per stage.
// Obtain it from Result.Trace().
type Trace = obs.Trace

// StageTrace is one stage's execution record within a Trace.
type StageTrace = obs.StageTrace

// Pool is the bounded worker pool the pipeline's data-parallel kernels run
// on. Attach a custom pool to a run with WithPool.
type Pool = pipe.Pool

// NewPool builds a pool running at most capacity work items at once.
func NewPool(capacity int) *Pool { return pipe.NewPool(capacity) }

// Option customizes one Run call.
type Option func(*runOptions)

type runOptions struct {
	ds   *Dataset
	pool *Pool
}

// WithDataset runs the pipeline on an existing dataset instead of
// generating a fresh one, allowing the dataset to be shared across
// experiments.
func WithDataset(ds *Dataset) Option {
	return func(o *runOptions) { o.ds = ds }
}

// WithPool bounds the run's data-parallel stages (pairwise distances,
// forest training) to the given worker pool instead of the process-shared
// one — one knob for callers embedding the pipeline next to other load.
func WithPool(p *Pool) Option {
	return func(o *runOptions) { o.pool = p }
}

// Run executes the full pipeline. The context cancels in-flight stages at
// their next checkpoint; options select an existing dataset (WithDataset)
// or a caller-bounded worker pool (WithPool).
func Run(ctx context.Context, cfg Config, opts ...Option) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.pool != nil {
		ctx = pipe.WithPool(ctx, o.pool)
	}
	if o.ds != nil {
		return analysis.RunOnDatasetContext(ctx, o.ds, cfg)
	}
	return analysis.RunContext(ctx, cfg)
}

// NewSuite runs the pipeline and wraps it in the experiment suite.
func NewSuite(cfg Config) (*Suite, error) { return experiments.NewSuite(cfg) }

// GenerateDataset builds a synthetic nationwide measurement dataset
// without running the analysis.
func GenerateDataset(cfg DatasetConfig) *Dataset { return synth.Generate(cfg) }

// Profile is one cluster's demand profile: characterizing services,
// environment composition, and temporal signature.
type Profile = core.Profile

// ProfileOptions bounds profile construction.
type ProfileOptions = core.Options

// SlicePlan is an environment-aware network-slice recommendation derived
// from a cluster profile (the Section 7 roadmap of the paper).
type SlicePlan = core.SlicePlan

// BuildProfiles derives one Profile per discovered cluster. The only
// failure mode is ctx cancellation.
func BuildProfiles(ctx context.Context, res *Result, opts ProfileOptions) ([]Profile, error) {
	return core.BuildProfiles(ctx, res, opts)
}

// PlanSlices derives a network-slice plan per cluster profile.
func PlanSlices(profiles []Profile) []SlicePlan { return core.PlanSlices(profiles) }

// --- Serving ----------------------------------------------------------------

// ModelSnapshot is the frozen, servable output of a pipeline run: the
// Eq. 5 indoor-reference shares plus the trained surrogate forest.
type ModelSnapshot = serve.ModelSnapshot

// NewModelSnapshot freezes the servable state of a finished run.
func NewModelSnapshot(res *Result) (*ModelSnapshot, error) {
	return serve.NewModelSnapshot(res)
}

// ServeConfig parameterizes the online classification service: listen
// address, its one-shard ingest queue's depth, request deadline, classify
// cache size, body and per-request antenna bounds, and fault injection.
type ServeConfig = serve.Config

// ServeStats is a point-in-time snapshot of a Server's activity.
type ServeStats = serve.Stats

// Server is the online antenna-classification HTTP service: batched probe
// ingest with bounded-queue backpressure, Eq. 5 + surrogate-forest
// classification with an LRU verdict cache, and observability endpoints.
type Server = serve.Server

// NewServer builds a serving instance around a model snapshot. Call Start
// to bind the listener and Shutdown for a drained stop.
func NewServer(snap *ModelSnapshot, cfg ServeConfig) (*Server, error) {
	return serve.New(snap, nil, cfg)
}

// ClassifyRequest is the POST /v1/classify body.
type ClassifyRequest = serve.ClassifyRequest

// AntennaVector is one antenna's raw per-service traffic totals.
type AntennaVector = serve.AntennaVector

// ClassifyResponse is the POST /v1/classify response.
type ClassifyResponse = serve.ClassifyResponse

// AntennaVerdict is one antenna's inferred demand cluster.
type AntennaVerdict = serve.AntennaVerdict

// Refresher closes the ingest → retrain → swap loop on a Server: it folds
// live aggregates over the training campaign, re-runs the warm pipeline on
// the antennas that changed (escalating to a full re-clustering past the
// drift threshold), and atomically publishes the retrained snapshot. Each
// revision's outdoor verdicts are computed after the publish; ResultFor
// waits for them. ResultFor serves a superseded revision as a slim copy
// that keeps its verdicts, labels and forecasts but not its traffic, so a
// forecast refit must run while the revision is current.
type Refresher = serve.Refresher

// RefreshConfig parameterizes a Refresher: tick interval, drift
// threshold, revision history, a log hook, and the OnSwap seam the sharded
// router fills in, which receives each newly swapped snapshot (not its
// result: that revision's outdoor-verdict audit is still running, and
// Refresher.ResultFor waits for it). A refresh folds its server's ingest
// tier.
type RefreshConfig = serve.RefreshConfig

// RefreshInfo is the refresh telemetry served under /v1/model.
type RefreshInfo = serve.RefreshInfo

// NewRefresher wires a continuous-refresh controller to a server and the
// offline result its current snapshot was trained from. Call Start to run
// the tick loop and Stop for a drained halt.
func NewRefresher(srv *Server, base *Result, cfg RefreshConfig) (*Refresher, error) {
	return serve.NewRefresher(srv, base, cfg)
}

// --- Forecasting & capacity planning ----------------------------------------

// ForecastSet bundles the per-cluster and per-antenna Holt-Winters
// busy-hour forecasters trained alongside a pipeline run's model
// (Result.Forecasts); snapshots carry it to /v1/forecast and /v1/plan.
type ForecastSet = forecast.Set

// ForecastRequest is the POST /v1/forecast body: exactly one of Cluster
// or Antenna, plus an optional horizon in hours.
type ForecastRequest = serve.ForecastRequest

// ForecastResponse is one model's horizon prediction with busy-hour and
// peak-load metadata, echoing the served model revision.
type ForecastResponse = serve.ForecastResponse

// PlanRequest is the POST /v1/plan body: a what-if scenario (antenna
// additions, removals, reassignments, event-calendar shifts) scored
// against the served revision's forecasters.
type PlanRequest = serve.PlanRequest

// PlanResponse carries the scored scenario.
type PlanResponse = serve.PlanResponse

// PlanAction is one scenario edit; see the forecast.Op* constants mirrored
// as OpAddAntennas, OpRemoveAntennas, OpReassign, OpShiftEvents.
type PlanAction = forecast.Action

// PlanResult is the per-cluster and aggregate busy-hour scoring of a
// scenario.
type PlanResult = forecast.PlanResult

// Scenario edit operations accepted by PlanAction.Op.
const (
	OpAddAntennas    = forecast.OpAddAntennas
	OpRemoveAntennas = forecast.OpRemoveAntennas
	OpReassign       = forecast.OpReassign
	OpShiftEvents    = forecast.OpShiftEvents
)

// --- Sharded serving --------------------------------------------------------

// ShardConfig parameterizes the sharded ingest + replicated serving layer:
// shard and replica counts, ring seeding, the per-shard queue depth, the
// listen address, request deadline and body bound, and fault injection.
// The attached refresh controller runs no tick loop: drive it with
// Router.RefreshOnce.
type ShardConfig = shard.Config

// Router is the sharded front door: probe ingest partitioned across N
// shard sinks by consistent hash with all-or-nothing batch acks (a
// replica's own /v1/ingest feeds the same sinks), classify traffic proxied
// round-robin over M replicas with failover, and every refreshed snapshot
// fanned out so all replicas serve one revision.
type Router = shard.Router

// RouterStats is the router's /v1/stats payload: acked-batch accounting,
// ring placement, per-shard queues, and per-replica revisions.
type RouterStats = shard.RouterStats

// RingStats summarizes ring placement state within RouterStats.
type RingStats = shard.RingStats

// ReplicaStats is one replica's routing and serving state.
type ReplicaStats = shard.ReplicaStats

// ShardSinkStats is one shard's queue depth and fold progress.
type ShardSinkStats = serve.SinkStats

// NewRouter builds the sharded layer around a trained snapshot. base is
// the offline result the snapshot came from; when non-nil a refresh
// controller is attached with cross-shard totals and snapshot fan-out
// wired in (pass nil to serve a static snapshot). Call Start to bind and
// Shutdown for a drained stop that folds every acked batch.
func NewRouter(snap *ModelSnapshot, base *Result, cfg ShardConfig) (*Router, error) {
	return shard.NewRouter(snap, base, cfg)
}

// Ring is the seeded consistent-hash ring placing antennas on shards.
type Ring = shard.Ring

// DefaultVirtualNodes is the ring's default per-shard virtual-node count.
const DefaultVirtualNodes = shard.DefaultVirtualNodes

// NewRing builds a placement ring over the given shard count.
// virtualNodes ≤ 0 selects DefaultVirtualNodes; the same (shards,
// virtualNodes, seed) triple always yields the same placement.
func NewRing(shards, virtualNodes int, seed uint64) (*Ring, error) {
	return shard.NewRing(shards, virtualNodes, seed)
}
