package analysis

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rca"
	"repro/internal/stats"
	"repro/internal/synth"
)

// This file defines the pipeline's composable sub-graphs. Each Add*Stages
// builder registers a few named stages on a pipe.Graph and communicates
// through small typed artifact structs instead of closure-captured Result
// fields, so callers can compose exactly the sub-graphs they need: the cold
// pipeline (RunOnDatasetContext) wires features → clustering → model, while
// the warm refresh path (WarmRefreshContext) reuses the feature and model
// sub-graphs around a centroid-assignment stage of its own.

// FeatureArtifacts carries the Section 4.1 feature-stage outputs.
type FeatureArtifacts struct {
	// RSCA is the N × M clustering feature matrix (Eq. 2).
	RSCA *mat.Dense
	// SqDists holds the condensed squared pairwise distances. The linkage
	// stage consumes (mutates) it and nils the field.
	SqDists *mat.Condensed
	// Dists is the Euclidean variant shared read-only with the selection
	// sweep and any post-run consumer (cophenetic fidelity, ablations).
	Dists *mat.Condensed
}

// ClusterArtifacts carries the Section 4.2 clustering outputs — either from
// the cold linkage/cut stages or from the warm centroid-assignment stage.
type ClusterArtifacts struct {
	// Linkage is the Ward dendrogram (nil on a non-escalated warm pass).
	Linkage *cluster.Linkage
	// Selection and Knees are the Fig. 2 model-selection sweep (cold only).
	Selection []cluster.SelectionPoint
	Knees     []int
	// K is the flat cluster count used downstream.
	K int
	// Alignment maps raw cut labels to aligned paper ids (cold only).
	Alignment []int
	// Labels holds one aligned cluster id per indoor antenna.
	Labels []int
}

// ModelArtifacts carries the Section 5 model outputs.
type ModelArtifacts struct {
	// Surrogate is the random forest of Section 5.1.2 and
	// SurrogateAccuracy its training accuracy on the cluster labels.
	Surrogate         *forest.Forest
	SurrogateAccuracy float64
	// Contingency is the cluster × environment table behind Figs. 6-8.
	Contingency *stats.Contingency
	// OutdoorLabels and OutdoorShare are the Section 5.3 outputs, filled
	// by the cold graph's "outdoor" stage (nil after a warm refresh).
	OutdoorLabels []int
	OutdoorShare  []float64

	// regrow is set on a warm refresh only: the forest stage then retrains
	// from the previous revision's split record. The cold graph leaves it
	// nil and records nothing.
	regrow *regrow
}

// regrow carries a warm forest stage's split records: prev, the previous
// revision's (nil when that revision was cold), and next, the one this
// training returns.
type regrow struct {
	prev, next *forest.Record
}

// AddRSCAStage registers the "rsca" stage: the Eq. 1/2 feature transform
// over the traffic matrix, with structural validation. k is checked against
// the population so downstream cuts cannot be asked for more clusters than
// antennas. Invalid features surface as a stage error instead of a panic.
func AddRSCAStage(g *pipe.Graph, traffic *mat.Dense, k int, out *FeatureArtifacts) {
	g.Add("rsca", nil, func(ctx context.Context) error {
		if traffic == nil || traffic.Rows() < 2 {
			return fmt.Errorf("analysis: need at least 2 antennas to cluster")
		}
		out.RSCA = rca.RSCA(traffic)
		if err := rca.Validate(out.RSCA); err != nil {
			return fmt.Errorf("invalid RSCA: %w", err)
		}
		if k < 1 || k > out.RSCA.Rows() {
			return fmt.Errorf("analysis: K=%d outside [1,%d]", k, out.RSCA.Rows())
		}
		return nil
	})
}

// AddFeatureStages registers the feature sub-graph: "rsca" followed by
// "distances", which computes the condensed squared pairwise distances once
// and derives the Euclidean copy shared with every downstream consumer.
func AddFeatureStages(g *pipe.Graph, traffic *mat.Dense, k int, out *FeatureArtifacts) {
	AddRSCAStage(g, traffic, k, out)
	g.Add("distances", []string{"rsca"}, func(ctx context.Context) error {
		var err error
		out.SqDists, err = mat.PairwiseSqDistContext(ctx, out.RSCA)
		if err != nil {
			return err
		}
		out.Dists = cluster.PairwiseDistancesFromSq(out.SqDists)
		return nil
	})
}

// AddClusterStages registers the cold clustering sub-graph on top of the
// feature stages: "linkage" (Ward from the shared squared distances),
// "selection" (the Fig. 2 Silhouette/Dunn sweep, concurrent with everything
// downstream of the flat cut) and "labels" (flat cut plus alignment to the
// paper's cluster numbering through the ground-truth archetypes —
// validation/reporting only).
func AddClusterStages(g *pipe.Graph, ds *synth.Dataset, cfg Config, feats *FeatureArtifacts, out *ClusterArtifacts) {
	g.Add("linkage", []string{"distances"}, func(ctx context.Context) error {
		out.Linkage = cluster.WardFromSqDistances(feats.SqDists)
		feats.SqDists = nil // consumed
		return nil
	})

	g.Add("selection", []string{"linkage"}, func(ctx context.Context) error {
		var err error
		out.Selection, err = cluster.SweepK(out.Linkage, feats.Dists, 2, cfg.SweepKMax)
		if err != nil {
			return fmt.Errorf("selection sweep: %w", err)
		}
		out.Knees = cluster.Knees(out.Selection, 3)
		return nil
	})

	g.Add("labels", []string{"linkage"}, func(ctx context.Context) error {
		out.K = cfg.K
		return out.cutAndAlign(ds)
	})
}

// cutAndAlign cuts c.Linkage into c.K flat clusters and renumbers them to
// the paper's cluster ids (alignLabels), filling Alignment and Labels. The
// cold "labels" stage and the warm "assign" stage's escalation share it.
func (c *ClusterArtifacts) cutAndAlign(ds *synth.Dataset) error {
	rawLabels, err := c.Linkage.Cut(c.K)
	if err != nil {
		return fmt.Errorf("flat cut: %w", err)
	}
	c.Alignment = alignLabels(rawLabels, ds, c.K)
	c.Labels = make([]int, len(rawLabels))
	for i, l := range rawLabels {
		c.Labels[i] = c.Alignment[l]
	}
	return nil
}

// AddModelStages registers the model sub-graph: "forest" (the Section 5.1.2
// surrogate on the cluster labels) and "contingency" (Section 5.2
// environment association). labelsDep names the stage that fills clus
// ("labels" on the cold path, "assign" on the warm path). On a warm
// refresh (out.regrow set) the forest stage calls forest.RetrainContext,
// which replays the previous revision's split record where the inputs
// did not change and returns the forest a cold training would, bit for
// bit, plus the record the next refresh replays. The Section 5.3 outdoor
// classification is not part of it: the cold graph adds its own
// "outdoor" stage, and a warm refresh leaves it to Result.ClassifyOutdoor.
func AddModelStages(g *pipe.Graph, ds *synth.Dataset, cfg Config, feats *FeatureArtifacts, clus *ClusterArtifacts, out *ModelArtifacts, labelsDep string) {
	g.Add("forest", []string{labelsDep}, func(ctx context.Context) error {
		fcfg := forest.Config{
			Trees:    cfg.ForestTrees,
			MaxDepth: cfg.ForestDepth,
			Seed:     cfg.Seed + 1,
		}
		var f *forest.Forest
		var err error
		if out.regrow != nil {
			f, out.regrow.next, err = forest.RetrainContext(ctx, out.regrow.prev, feats.RSCA, clus.Labels, clus.K, fcfg)
		} else {
			f, err = forest.TrainContext(ctx, feats.RSCA, clus.Labels, clus.K, fcfg)
		}
		if err != nil {
			return err
		}
		out.Surrogate = f
		out.SurrogateAccuracy = f.TrainAccuracy
		return nil
	})

	g.Add("contingency", []string{labelsDep}, func(ctx context.Context) error {
		out.Contingency = EnvContingency(clus.Labels, ds, clus.K)
		return nil
	})
}

// ForecastArtifacts carries the Section 6-7 proactive-management output:
// the per-cluster and per-antenna busy-hour forecasters.
type ForecastArtifacts struct {
	// Set bundles the fitted Holt-Winters models for one revision.
	Set *forecast.Set
}

// AddForecastStage registers the "forecast" stage: per-cluster and
// per-antenna Holt-Winters busy-hour forecasters trained on the hourly
// series implied by the live traffic matrix. labelsDep names the stage
// that fills clus ("labels" on the cold path, "assign" on the warm path),
// so the refresher keeps forecasts fresh per revision alongside the
// forest. The stage runs concurrently with forest training.
func AddForecastStage(g *pipe.Graph, ds *synth.Dataset, cfg Config, clus *ClusterArtifacts, out *ForecastArtifacts, labelsDep string) {
	g.Add("forecast", []string{labelsDep}, func(ctx context.Context) error {
		set, err := fitForecastSet(ctx, ds, cfg, clus.K, clus.Labels)
		if err != nil {
			return fmt.Errorf("forecast fit: %w", err)
		}
		out.Set = set
		return nil
	})
}

// fitForecastSet trains the forecast set for one (traffic, labels) state:
// per cluster, up to cfg.ForecastSample member antennas are sampled
// deterministically, their hourly series derived from the *current*
// traffic matrix rows (synth.HourlyTotalsRow — bit-identical to the
// generation series when the row is unchanged, live after a refresh
// folds new aggregates in), reduced to the cluster median, and fitted.
// The series fan-out runs on the context's worker pool; fitting itself is
// serial and deterministic.
func fitForecastSet(ctx context.Context, ds *synth.Dataset, cfg Config, k int, labels []int) (*forecast.Set, error) {
	members := make([][]int, k)
	for i, l := range labels {
		if l >= 0 && l < k {
			members[l] = append(members[l], i)
		}
	}
	sampled := make([][]int, k)
	var all []int
	for c := 0; c < k; c++ {
		sampled[c] = subsample(members[c], cfg.ForecastSample)
		all = append(all, sampled[c]...)
	}
	series := make([][]float64, len(all))
	err := pipe.FromContext(ctx).ForEach(ctx, len(all), func(i int) {
		ant := ds.Indoor[all[i]]
		series[i] = ds.HourlyTotalsRow(ant, ds.Traffic.Row(ant.ID))
	})
	if err != nil {
		return nil, err
	}
	hours := ds.Cal.Hours()
	clusters := make([]forecast.ClusterSeries, k)
	pos := 0
	for c := 0; c < k; c++ {
		cs := forecast.ClusterSeries{Cluster: c, Members: len(members[c])}
		perAntenna := make([][]float64, len(sampled[c]))
		for i, idx := range sampled[c] {
			perAntenna[i] = series[pos]
			pos++
			cs.Antennas = append(cs.Antennas, forecast.AntennaSeries{Antenna: idx, Series: perAntenna[i]})
		}
		cs.Series = medianWindow(perAntenna, 0, hours)
		clusters[c] = cs
	}
	return forecast.FitSet(clusters, forecast.Config{})
}

// classifyOutdoor computes Eq. 5 RSCA for the outdoor population and runs
// it through the surrogate forest as one pooled batch prediction.
func classifyOutdoor(ctx context.Context, ds *synth.Dataset, f *forest.Forest, k int) (labels []int, share []float64, err error) {
	if len(ds.Outdoor) == 0 {
		return nil, make([]float64, k), nil
	}
	ref, err := rca.NewOutdoorReference(ds.Traffic)
	if err != nil {
		return nil, nil, fmt.Errorf("outdoor reference: %w", err)
	}
	outRSCA, err := ref.RSCAOutdoor(ds.OutdoorTraffic)
	if err != nil {
		return nil, nil, fmt.Errorf("outdoor RSCA: %w", err)
	}
	labels, err = f.PredictAllContext(ctx, outRSCA)
	if err != nil {
		return nil, nil, err
	}
	share = make([]float64, k)
	for _, l := range labels {
		share[l]++
	}
	for i := range share {
		share[i] /= float64(len(labels))
	}
	return labels, share, nil
}
