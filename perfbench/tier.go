package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// shape is the trained model and tier size every workload runs against.
type shape struct {
	scale  float64
	trees  int
	shards int
	reps   int
	// setups is how many times a run trains and stands up the tier; setup_s
	// is their median and the last one serves the workload.
	setups int
}

// paperShape is scale 0.25 with the paper's 100-tree forest: 1,193 indoor
// and 5,500 outdoor antennas, 4 shards behind 2 replicas.
var paperShape = shape{scale: 0.25, trees: 100, shards: 4, reps: 2, setups: 5}

// modelSeed fixes the dataset and the ring. Every run of every workload
// serves the same trained model on the same ring, so runs with different
// --seed values differ in the traffic they draw, not in the dataset.
const modelSeed = 1

// tier is one trained snapshot served by a started sharded router.
type tier struct {
	res  *analysis.Result
	rt   *shard.Router
	url  string
	reps int
}

// setUp trains the snapshot and starts the router and its replicas
// sh.setups times, timing each set-up end to end. Every tier but the last
// is shut down again; the last is returned running.
func setUp(ctx context.Context, sh shape) (*tier, []float64, [][]obs.StageTrace, error) {
	var secs []float64
	var cold [][]obs.StageTrace
	var t *tier
	for k := 0; k < sh.setups; k++ {
		if t != nil {
			if err := t.shutdown(); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		res, err := analysis.RunContext(ctx, analysis.Config{Seed: modelSeed, Scale: sh.scale, ForestTrees: sh.trees})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("train: %w", err)
		}
		// Read the stage trace before the result is published to the tier.
		cold = append(cold, res.Trace().Stages())
		snap, err := serve.NewModelSnapshot(res)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("snapshot: %w", err)
		}
		rt, err := shard.NewRouter(snap, res, shard.Config{Shards: sh.shards, Replicas: sh.reps, RingSeed: modelSeed})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("router: %w", err)
		}
		if err := rt.Start(); err != nil {
			return nil, nil, nil, fmt.Errorf("start router: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		t = &tier{res: res, rt: rt, url: rt.URL(), reps: sh.reps}
	}
	return t, secs, cold, nil
}

// shutdown drains the router: every acked ingest batch is folded before it
// returns.
func (t *tier) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := t.rt.Shutdown(ctx); err != nil {
		return fmt.Errorf("router shutdown: %w", err)
	}
	return nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
