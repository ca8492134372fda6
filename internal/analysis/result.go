package analysis

import (
	"context"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/forest"
	"repro/internal/geo"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/rca"
	"repro/internal/rng"
	"repro/internal/shap"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Result is the full pipeline output.
type Result struct {
	Config  Config
	Dataset *synth.Dataset

	// RSCA is the N × M clustering feature matrix (Section 4.1).
	RSCA *mat.Dense
	// Linkage is the Ward dendrogram (Fig. 3). Warm-refreshed results only
	// carry one when the drift statistic escalated to a full re-linkage.
	Linkage *cluster.Linkage
	// Selection is the Fig. 2 sweep of Silhouette and Dunn versus k.
	Selection []cluster.SelectionPoint
	// Knees are the candidate k values by steepest post-peak drop.
	Knees []int
	// K is the flat cluster count used downstream.
	K int
	// Labels holds one cluster id per indoor antenna, aligned to the
	// paper's numbering (0-8) via majority ground-truth archetype.
	Labels []int
	// LabelAlignment maps raw CutK labels to aligned paper ids.
	LabelAlignment []int

	// Surrogate is the random forest of Section 5.1.2.
	Surrogate *forest.Forest
	// SurrogateAccuracy is the surrogate's training accuracy on the
	// cluster labels.
	SurrogateAccuracy float64

	// Contingency is the cluster × environment table behind Figs. 6-8.
	Contingency *stats.Contingency

	// OutdoorLabels holds the inferred cluster of every outdoor antenna
	// (Fig. 9) and OutdoorShare the per-cluster fraction.
	OutdoorLabels []int
	OutdoorShare  []float64

	// Forecasts bundles the per-cluster and per-antenna busy-hour
	// forecasters trained by the forecast stage on this result's traffic
	// state (Sections 6-7 proactive management).
	Forecasts *forecast.Set

	// trace holds the per-stage execution records of the staged engine.
	trace *obs.Trace

	// forestRecord is the split record of a warm refresh's surrogate
	// training, which the next warm refresh replays (see
	// forest.RetrainContext); nil on a cold result. It is not part of the
	// served model, and Slim drops it.
	forestRecord *forest.Record

	// mu guards the lazily built caches below.
	mu sync.Mutex
	// dists is the condensed Euclidean pairwise distance matrix over the
	// RSCA rows, computed once by the distance stage and shared with every
	// downstream consumer (selection sweep, cophenetic fidelity, k-means
	// ablation). Callers must treat it as read-only.
	dists *mat.Condensed
	// temporalCache memoizes ClusterTemporalProfilesContext /
	// ServiceTemporalProfilesContext per (service, antenna-cap) pair with
	// single-flight entries; the temporal stage warms it concurrently
	// with forest training.
	temporalCache map[temporalKey]*temporalEntry
	// seriesCache memoizes the per-antenna hourly series underneath the
	// profiles, keyed by (antenna index, service), so the expensive
	// synthesis runs once per antenna across the whole (service, cap)
	// profile key space and the forecasting series.
	seriesCache map[seriesKey][]float64
}

type temporalKey struct {
	service int // -1 = total traffic
	cap     int
}

// temporalEntry is one single-flight cache slot: the computing caller
// closes done after filling profiles/err; waiters block on done (or
// their own context).
type temporalEntry struct {
	done     chan struct{}
	profiles []TemporalProfile
	err      error
}

type seriesKey struct {
	antenna int
	service int // -1 = total traffic
}

// defaultTemporalCap is the per-cluster antenna cap the temporal stage
// precomputes profiles at — the experiment suite's default sample size.
const defaultTemporalCap = 40

// adoptClusters binds the clustering artifacts a running graph has already
// completed into the Result, giving in-graph consumers (the temporal cache
// warmer) a coherent view before the full publish. Only fields whose
// producing stages are upstream of the caller may be bound here.
func (r *Result) adoptClusters(feats *FeatureArtifacts, clus *ClusterArtifacts) {
	r.RSCA = feats.RSCA
	r.K = clus.K
	r.Labels = clus.Labels
}

// publish copies every artifact into the Result after the graph has
// finished. Re-binding fields adoptClusters already set is idempotent.
func (r *Result) publish(feats *FeatureArtifacts, clus *ClusterArtifacts, model *ModelArtifacts, fc *ForecastArtifacts) {
	r.RSCA = feats.RSCA
	r.Linkage = clus.Linkage
	r.Selection = clus.Selection
	r.Knees = clus.Knees
	r.K = clus.K
	r.Labels = clus.Labels
	r.LabelAlignment = clus.Alignment
	r.Surrogate = model.Surrogate
	r.SurrogateAccuracy = model.SurrogateAccuracy
	r.Contingency = model.Contingency
	r.OutdoorLabels = model.OutdoorLabels
	r.OutdoorShare = model.OutdoorShare
	if fc != nil {
		r.Forecasts = fc.Set
	}
	if feats.Dists != nil {
		r.mu.Lock()
		r.dists = feats.Dists
		r.mu.Unlock()
	}
}

// Trace returns the per-stage observability records of the run that built
// this result: wall time, queueing delay, allocation delta and goroutine
// count per stage (see internal/obs). Results built outside the staged
// engine return an empty trace.
func (r *Result) Trace() *obs.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.trace == nil {
		r.trace = obs.NewTrace()
	}
	return r.trace
}

// Slim returns a fresh Result holding only what per-revision audits read:
// Config, K, Labels, LabelAlignment, SurrogateAccuracy, OutdoorLabels,
// OutdoorShare, Forecasts and the stage trace. The dataset (and with it
// the N × M traffic matrix), surrogate forest and its split record, RSCA
// matrix, linkage, selection sweep, contingency table and the lazily
// built caches are left behind, so a slim copy costs the label vectors
// plus the forecast set.
// Trace and the outdoor verdicts still work on it; RefitForecasts, which
// needs the traffic, returns an error. r is not modified; anyone holding
// r keeps the full result.
func (r *Result) Slim() *Result {
	r.mu.Lock()
	tr := r.trace
	r.mu.Unlock()
	return &Result{
		Config:            r.Config,
		K:                 r.K,
		Labels:            r.Labels,
		LabelAlignment:    r.LabelAlignment,
		SurrogateAccuracy: r.SurrogateAccuracy,
		OutdoorLabels:     r.OutdoorLabels,
		OutdoorShare:      r.OutdoorShare,
		Forecasts:         r.Forecasts,
		trace:             tr,
	}
}

// Distances returns the condensed Euclidean pairwise distance matrix over
// the RSCA rows, computing it on first use when the result was not built
// by the staged engine. The matrix is shared: callers must not mutate it.
func (r *Result) Distances() *mat.Condensed {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dists == nil {
		r.dists = cluster.PairwiseDistances(r.RSCA)
	}
	return r.dists
}

// ClassifyOutdoor runs the Section 5.3 outdoor classification against
// this result's dataset and surrogate, binds OutdoorLabels and
// OutdoorShare, and records the work as the "outdoor" stage of the
// result's trace. The cold pipeline runs the same classification inside
// its graph; WarmRefreshContext leaves it to this method, which the
// serving refresher calls after it has published the revision's snapshot.
// It writes r, so no other goroutine may hold r yet.
func (r *Result) ClassifyOutdoor(ctx context.Context) error {
	return pipe.RunStage(ctx, r.Trace(), "outdoor", []string{"forest"}, func(ctx context.Context) error {
		labels, share, err := classifyOutdoor(ctx, r.Dataset, r.Surrogate, r.K)
		if err != nil {
			return err
		}
		r.OutdoorLabels, r.OutdoorShare = labels, share
		return nil
	})
}

// ParisShareByCluster returns the fraction of each cluster's antennas
// located in the Paris region — the geography the paper reports in
// Section 5.2.2 (clusters 0 and 4 above 92% Parisian, cluster 7 entirely
// outside the capital, cluster 2 at ~92% outside Paris, cluster 3 ~70%
// Parisian).
func (r *Result) ParisShareByCluster() []float64 {
	counts := make([]int, r.K)
	paris := make([]int, r.K)
	for i, l := range r.Labels {
		counts[l]++
		if r.Dataset.Indoor[i].Paris {
			paris[l]++
		}
	}
	out := make([]float64, r.K)
	for c := range out {
		if counts[c] > 0 {
			out[c] = float64(paris[c]) / float64(counts[c])
		}
	}
	return out
}

// ProximityContrast quantifies Section 5.3's observation that "the same
// mobile applications manifest very heterogeneous behaviors between ICNs
// and outdoor BSs, even for antennas in proximity": for every indoor
// antenna with at least one outdoor neighbour within radiusMeters, it
// reports whether the majority of those neighbours carries a different
// inferred cluster.
type ProximityContrast struct {
	// IndoorWithNeighbours counts indoor antennas having ≥1 outdoor
	// neighbour within the radius.
	IndoorWithNeighbours int
	// DisagreeFraction is the fraction of those antennas whose own
	// cluster differs from the majority cluster of their neighbours.
	DisagreeFraction float64
	// MeanNeighbours is the average outdoor-neighbour count.
	MeanNeighbours float64
}

// Proximity computes the indoor/outdoor cluster contrast at the given
// radius (the paper uses 1 km).
func (r *Result) Proximity(radiusMeters float64) ProximityContrast {
	var pc ProximityContrast
	if len(r.Dataset.Outdoor) == 0 || r.OutdoorLabels == nil {
		return pc
	}
	idx := geo.NewIndex(r.Dataset.OutdoorLocations(), radiusMeters)
	totalNeighbours := 0
	disagree := 0
	for i, ant := range r.Dataset.Indoor {
		neighbours := idx.Within(ant.Location, radiusMeters)
		if len(neighbours) == 0 {
			continue
		}
		pc.IndoorWithNeighbours++
		totalNeighbours += len(neighbours)
		counts := map[int]int{}
		for _, o := range neighbours {
			counts[r.OutdoorLabels[o]]++
		}
		best, bestC := -1, -1
		for cl, c := range counts {
			if c > bestC {
				bestC = c
				best = cl
			}
		}
		if best != r.Labels[i] {
			disagree++
		}
	}
	if pc.IndoorWithNeighbours > 0 {
		pc.DisagreeFraction = float64(disagree) / float64(pc.IndoorWithNeighbours)
		pc.MeanNeighbours = float64(totalNeighbours) / float64(pc.IndoorWithNeighbours)
	}
	return pc
}

// ClusterMembers returns the indoor antenna indices of one cluster.
func (r *Result) ClusterMembers(clusterID int) []int {
	var out []int
	for i, l := range r.Labels {
		if l == clusterID {
			out = append(out, i)
		}
	}
	return out
}

// ClusterSizes returns the antenna count per cluster.
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, r.K)
	for _, l := range r.Labels {
		sizes[l]++
	}
	return sizes
}

// MeanRSCAByCluster returns, per cluster, the mean RSCA per service — the
// row blocks of the Fig. 4 heatmap.
func (r *Result) MeanRSCAByCluster() [][]float64 {
	out := make([][]float64, r.K)
	for c := 0; c < r.K; c++ {
		out[c] = r.RSCA.MeanRows(r.ClusterMembers(c))
	}
	return out
}

// ExplainCluster computes the Fig. 5 beeswarm summary of one cluster: up
// to SHAPSamplesPerCluster member antennas plus half as many non-member
// contrast antennas, explained for the cluster's class output with
// TreeSHAP. topK bounds the returned feature list (the paper shows 25).
func (r *Result) ExplainCluster(clusterID, topK int) shap.ClassSummary {
	members := r.ClusterMembers(clusterID)
	budget := r.Config.SHAPSamplesPerCluster
	samples := subsample(members, budget)
	// Deterministic contrast sample: non-members at a stride.
	var others []int
	for i, l := range r.Labels {
		if l != clusterID {
			others = append(others, i)
		}
	}
	samples = append(samples, subsample(others, budget/2)...)
	sort.Ints(samples)
	return shap.SummarizeClass(r.Surrogate, r.RSCA, clusterID, samples, topK)
}

// subsample picks up to n elements at an even stride (deterministic).
func subsample(idx []int, n int) []int {
	if len(idx) <= n || n <= 0 {
		out := make([]int, len(idx))
		copy(out, idx)
		return out
	}
	out := make([]int, 0, n)
	stride := float64(len(idx)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, idx[int(float64(i)*stride)])
	}
	return out
}

// Purity returns the fraction of antennas whose cluster's majority
// ground-truth archetype matches their own — the headline validation that
// the unsupervised pipeline re-discovers the generative structure.
func (r *Result) Purity() float64 {
	majority := make(map[int]map[int]int)
	for i, l := range r.Labels {
		if majority[l] == nil {
			majority[l] = make(map[int]int)
		}
		majority[l][r.Dataset.Indoor[i].Archetype]++
	}
	major := make(map[int]int)
	for l, counts := range majority {
		best, bestC := -1, -1
		for a, c := range counts {
			if c > bestC {
				bestC = c
				best = a
			}
		}
		major[l] = best
	}
	ok := 0
	for i, l := range r.Labels {
		if major[l] == r.Dataset.Indoor[i].Archetype {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Labels))
}

// AdjustedRandIndex measures agreement between the discovered clusters and
// the ground-truth archetypes, corrected for chance (1 = perfect).
func (r *Result) AdjustedRandIndex() float64 {
	truth := make([]int, len(r.Labels))
	for i := range truth {
		truth[i] = r.Dataset.Indoor[i].Archetype
	}
	return ARI(r.Labels, truth)
}

// StabilityReport summarizes the robustness of the clustering under
// antenna subsampling: how consistently a fresh Ward run on a random
// subset reproduces the full-population labels.
type StabilityReport struct {
	// Rounds is the number of subsample repetitions.
	Rounds int
	// MeanARI and MinARI aggregate the per-round agreement between the
	// subsample clustering and the full clustering (restricted to the
	// sampled antennas).
	MeanARI, MinARI float64
}

// Stability reclusters `rounds` random subsamples of the antennas
// (fraction frac of the population, without replacement) and measures the
// adjusted Rand index against the full-run labels. The RSCA features are
// recomputed from the traffic submatrix each round, so the subsample sees
// exactly what a smaller measurement campaign would have seen. Rounds are
// independent and run concurrently on the shared worker pool; the
// subsample permutations are drawn sequentially up front, so the report
// is identical to a serial execution.
func (r *Result) Stability(rounds int, frac float64, seed uint64) StabilityReport {
	if rounds <= 0 {
		rounds = 5
	}
	if frac <= 0 || frac > 1 {
		frac = 0.7
	}
	n := len(r.Labels)
	size := int(float64(n) * frac)
	if size < r.K*2 {
		size = min(n, r.K*2)
	}
	src := rng.New(seed)
	perms := make([][]int, rounds)
	for round := range perms {
		perm := src.Perm(n)[:size]
		sort.Ints(perm)
		perms[round] = perm
	}
	aris := make([]float64, rounds)
	pipe.Shared().ForEach(context.Background(), rounds, func(round int) {
		sub := mat.NewDense(size, r.Dataset.Traffic.Cols())
		ref := make([]int, size)
		for i, idx := range perms[round] {
			copy(sub.Row(i), r.Dataset.Traffic.Row(idx))
			ref[i] = r.Labels[idx]
		}
		features := rca.RSCA(sub)
		labels := cluster.Ward(features).CutK(r.K)
		aris[round] = ARI(labels, ref)
	})
	rep := StabilityReport{Rounds: rounds, MinARI: 2}
	var sum float64
	for _, ari := range aris {
		sum += ari
		if ari < rep.MinARI {
			rep.MinARI = ari
		}
	}
	rep.MeanARI = sum / float64(rounds)
	return rep
}

// ARI computes the adjusted Rand index between two labelings. All pair
// counts accumulate as integers — the contingency tables are maps, and
// summing floats in randomized map order would leak iteration order into
// the low bits of the result, breaking golden parity.
func ARI(a, b []int) float64 {
	if len(a) != len(b) {
		// Both labelings always describe the same antenna set.
		//lint:allow nopanic paired labelings derive from one antenna set
		panic("analysis: ARI length mismatch")
	}
	n := len(a)
	type pair struct{ x, y int }
	cont := map[pair]int{}
	aCount := map[int]int{}
	bCount := map[int]int{}
	for i := 0; i < n; i++ {
		cont[pair{a[i], b[i]}]++
		aCount[a[i]]++
		bCount[b[i]]++
	}
	// m*(m-1) is even, so choose2 is exact in int64; sums stay exact and
	// order-independent (labelings cap at millions of antennas, far from
	// overflow).
	choose2 := func(m int) int64 { return int64(m) * int64(m-1) / 2 }
	var sumCont, sumA, sumB int64
	for _, c := range cont {
		sumCont += choose2(c)
	}
	for _, c := range aCount {
		sumA += choose2(c)
	}
	for _, c := range bCount {
		sumB += choose2(c)
	}
	total := choose2(n)
	if total == 0 {
		return 1
	}
	// Degenerate-agreement guard on the integer identity
	// (sumA+sumB)/2 == sumA*sumB/total, cross-multiplied to avoid any
	// float comparison.
	if (sumA+sumB)*total == 2*sumA*sumB {
		return 1
	}
	expected := float64(sumA) * float64(sumB) / float64(total)
	maxIdx := float64(sumA+sumB) / 2
	return (float64(sumCont) - expected) / (maxIdx - expected)
}
