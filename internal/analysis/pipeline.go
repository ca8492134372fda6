// Package analysis wires the substrates and core algorithms into the
// paper's full pipeline: synthetic nationwide dataset → RSCA features →
// Ward clustering with Silhouette/Dunn model selection → surrogate random
// forest → TreeSHAP interpretation → environment association → outdoor
// comparison → temporal profiles. Every experiment of the evaluation maps
// to a method of this package (see DESIGN.md's per-experiment index).
//
// The pipeline is built from composable sub-graphs (see stages.go): typed
// artifact structs flow between the feature, clustering and model stage
// builders, so the cold batch path (RunOnDatasetContext) and the warm
// incremental path (WarmRefreshContext, warm.go) share the same stage
// implementations and stay bit-identical on identical inputs.
package analysis

import (
	"context"
	"fmt"

	"repro/internal/envmodel"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Config parameterizes a full pipeline run.
type Config struct {
	// Seed drives dataset generation and every stochastic algorithm.
	Seed uint64
	// Scale multiplies the paper's antenna counts (1.0 = full scale).
	Scale float64
	// OutdoorCount overrides the outdoor population size (0 = default).
	OutdoorCount int
	// K is the flat cluster count; the paper selects 9.
	K int
	// SweepKMax bounds the Fig. 2 model-selection sweep (default 14).
	SweepKMax int
	// ForestTrees sizes the surrogate (default 100, as in the paper).
	ForestTrees int
	// ForestDepth bounds surrogate tree depth (default 12).
	ForestDepth int
	// SHAPSamplesPerCluster bounds the per-cluster explained sample count
	// (default 30 members plus 15 contrast samples).
	SHAPSamplesPerCluster int
	// ForecastSample bounds the per-cluster antenna sample the forecast
	// stage trains on (default 40, matching the temporal profile cap).
	ForecastSample int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.K <= 0 {
		c.K = 9
	}
	if c.SweepKMax <= 0 {
		c.SweepKMax = 14
	}
	if c.ForestTrees <= 0 {
		c.ForestTrees = 100
	}
	if c.ForestDepth <= 0 {
		c.ForestDepth = 12
	}
	if c.SHAPSamplesPerCluster <= 0 {
		c.SHAPSamplesPerCluster = 30
	}
	if c.ForecastSample <= 0 {
		c.ForecastSample = defaultTemporalCap
	}
	return c
}

// Run executes the full pipeline on a freshly generated dataset.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: cancelling ctx stops
// pending stages and in-stage work loops, and returns ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ds := synth.Generate(synth.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		OutdoorCount: cfg.OutdoorCount,
	})
	return RunOnDatasetContext(ctx, ds, cfg)
}

// RunOnDataset executes the pipeline on an existing dataset.
func RunOnDataset(ds *synth.Dataset, cfg Config) (*Result, error) {
	return RunOnDatasetContext(context.Background(), ds, cfg)
}

// RunOnDatasetContext executes the cold pipeline on an existing dataset as
// a stage graph on the pipe engine, composed from the sub-graph builders in
// stages.go. Each paper section is a named stage with explicit
// dependencies; independent stages — the model-selection sweep, surrogate
// forest training, environment contingency, outdoor classification and
// temporal profiling — run concurrently on the shared worker pool, and the
// O(N²·M) pairwise distance matrix is computed once and shared between
// Ward clustering and the selection metrics. Stage failures (e.g. invalid
// RSCA features) are returned as errors wrapped with the failing stage's
// name; per-stage timings are available through Result.Trace().
func RunOnDatasetContext(ctx context.Context, ds *synth.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Config: cfg, Dataset: ds, trace: obs.NewTrace()}

	g := pipe.NewGraph()
	feats := &FeatureArtifacts{}
	clus := &ClusterArtifacts{}
	model := &ModelArtifacts{}
	fc := &ForecastArtifacts{}
	AddFeatureStages(g, ds.Traffic, cfg.K, feats)
	AddClusterStages(g, ds, cfg, feats, clus)
	AddModelStages(g, ds, cfg, feats, clus, model, "labels")
	AddForecastStage(g, ds, cfg, clus, fc, "labels")

	// Section 5.3: classify the outdoor population against the surrogate.
	// Only the cold graph runs it as a stage; a warm refresh defers it to
	// Result.ClassifyOutdoor.
	g.Add("outdoor", []string{"forest"}, func(ctx context.Context) error {
		var err error
		model.OutdoorLabels, model.OutdoorShare, err = classifyOutdoor(ctx, ds, model.Surrogate, clus.K)
		return err
	})

	// Section 6: warm the per-cluster temporal profile cache at the
	// experiment suite's sample cap, overlapping the forest stage. The
	// clustering artifacts are bound into the Result first so the
	// memoizing profile methods see a coherent view mid-graph.
	g.Add("temporal", []string{"labels"}, func(ctx context.Context) error {
		res.adoptClusters(feats, clus)
		_, err := res.ClusterTemporalProfilesContext(ctx, defaultTemporalCap)
		return err
	})

	if err := g.Run(ctx, res.Trace()); err != nil {
		return nil, err
	}
	res.publish(feats, clus, model, fc)
	return res, nil
}

// alignLabels maps raw cluster labels to paper archetype ids by greedy
// majority matching on the label × archetype count matrix. When k differs
// from the archetype count, surplus labels keep fresh ids.
func alignLabels(rawLabels []int, ds *synth.Dataset, k int) []int {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, envmodel.NumArchetypes)
	}
	for i, l := range rawLabels {
		a := ds.Indoor[i].Archetype
		if a >= 0 {
			counts[l][a]++
		}
	}
	mapping := make([]int, k)
	for i := range mapping {
		mapping[i] = -1
	}
	usedArch := make([]bool, envmodel.NumArchetypes)
	for assigned := 0; assigned < k && assigned < envmodel.NumArchetypes; assigned++ {
		bestL, bestA, best := -1, -1, -1
		for l := 0; l < k; l++ {
			if mapping[l] >= 0 {
				continue
			}
			for a := 0; a < envmodel.NumArchetypes; a++ {
				if usedArch[a] {
					continue
				}
				if counts[l][a] > best {
					best = counts[l][a]
					bestL, bestA = l, a
				}
			}
		}
		if bestL < 0 {
			break
		}
		mapping[bestL] = bestA
		usedArch[bestA] = true
	}
	// Any unmapped labels take the remaining ids deterministically.
	next := 0
	for l := 0; l < k; l++ {
		if mapping[l] >= 0 {
			continue
		}
		for next < len(usedArch) && usedArch[next] {
			next++
		}
		if next < len(usedArch) {
			mapping[l] = next
			usedArch[next] = true
		} else {
			mapping[l] = l
		}
	}
	return mapping
}

// EnvContingency cross-tabulates cluster labels against ground-truth
// environment types.
func EnvContingency(labels []int, ds *synth.Dataset, k int) *stats.Contingency {
	rowLabels := make([]string, k)
	for i := range rowLabels {
		rowLabels[i] = fmt.Sprintf("cluster %d", i)
	}
	colLabels := make([]string, envmodel.NumEnvTypes)
	for i, e := range envmodel.AllEnvTypes() {
		colLabels[i] = e.String()
	}
	c := stats.NewContingency(rowLabels, colLabels)
	for i, l := range labels {
		env, ok := envmodel.ClassifyName(ds.Indoor[i].Name)
		if !ok {
			env = ds.Indoor[i].Env // fall back to ground truth
		}
		c.Add(l, int(env))
	}
	return c
}
