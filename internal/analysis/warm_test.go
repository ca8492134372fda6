package analysis

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/forest"
	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/rng"
)

// warmBase runs the cold pipeline once at a reduced scale; the warm tests
// share it (the pipeline is deterministic and the result is read-only).
var warmBaseCache *Result

func warmBase(t *testing.T) *Result {
	t.Helper()
	if warmBaseCache == nil {
		res, err := Run(Config{
			Seed:         7,
			Scale:        0.05,
			OutdoorCount: 150,
			ForestTrees:  15,
			SweepKMax:    10,
		})
		if err != nil {
			t.Fatal(err)
		}
		warmBaseCache = res
	}
	return warmBaseCache
}

func sameDense(t *testing.T, name string, a, b interface {
	Rows() int
	Cols() int
	Row(int) []float64
}) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("%s: bit mismatch at (%d,%d): %v vs %v", name, i, j, ra[j], rb[j])
			}
		}
	}
}

// TestWarmRefreshDriftZeroParity is the warm/cold parity fixture of the
// determinism contract: a warm refresh over bit-identical traffic with no
// dirty rows must reproduce the cold pipeline bit-for-bit — features,
// labels, surrogate forest and outdoor verdicts (the serve-side revision
// fingerprint is covered by serve's parity fixture).
func TestWarmRefreshDriftZeroParity(t *testing.T) {
	cold := warmBase(t)
	warm, st, err := WarmRefresh(cold, cold.Dataset.Traffic.Clone(), nil, WarmConfig{DriftThreshold: DefaultDriftThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if st.Drift != 0 || st.Reassigned != 0 || st.Added != 0 || st.Escalated {
		t.Fatalf("drift-0 refresh reported movement: %+v", st)
	}
	sameDense(t, "RSCA", warm.RSCA, cold.RSCA)
	if !reflect.DeepEqual(warm.Labels, cold.Labels) {
		t.Fatal("labels diverged on identical data")
	}
	if !reflect.DeepEqual(warm.Surrogate, cold.Surrogate) {
		t.Fatal("surrogate forest diverged on identical data")
	}
	if warm.SurrogateAccuracy != cold.SurrogateAccuracy {
		t.Fatalf("surrogate accuracy %v vs %v", warm.SurrogateAccuracy, cold.SurrogateAccuracy)
	}
	if warm.OutdoorLabels != nil || warm.OutdoorShare != nil {
		t.Fatal("a warm refresh must leave the outdoor verdicts to ClassifyOutdoor")
	}
	if err := warm.ClassifyOutdoor(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.OutdoorLabels, cold.OutdoorLabels) {
		t.Fatal("outdoor verdicts diverged on identical data")
	}
	if !reflect.DeepEqual(warm.OutdoorShare, cold.OutdoorShare) {
		t.Fatal("outdoor shares diverged on identical data")
	}
	if !reflect.DeepEqual(warm.Contingency, cold.Contingency) {
		t.Fatal("contingency diverged on identical data")
	}
	if warm.K != cold.K {
		t.Fatalf("K %d vs %d", warm.K, cold.K)
	}
}

// TestWarmRefreshMovesOnlyDirtyRows checks the warm path's locality: clean
// antennas keep their previous cluster even when other rows change.
func TestWarmRefreshMovesOnlyDirtyRows(t *testing.T) {
	cold := warmBase(t)
	traffic := cold.Dataset.Traffic.Clone()
	// Make one antenna's demand mix identical to antenna 0's, which sits
	// in a different cluster — its nearest centroid should move with it.
	a := -1
	for i, l := range cold.Labels {
		if l != cold.Labels[0] {
			a = i
			break
		}
	}
	if a < 0 {
		t.Fatal("could not find antennas in two clusters")
	}
	copy(traffic.Row(a), traffic.Row(0))

	warm, st, err := WarmRefresh(cold, traffic, []int{a}, WarmConfig{DriftThreshold: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Escalated {
		t.Fatal("threshold 1.1 must never escalate")
	}
	if st.Reassigned != 1 || warm.Labels[a] == cold.Labels[a] {
		t.Fatalf("expected exactly antenna %d to move (got %+v, label %d -> %d)",
			a, st, cold.Labels[a], warm.Labels[a])
	}
	for i := range warm.Labels {
		if i != a && warm.Labels[i] != cold.Labels[i] {
			t.Fatalf("clean antenna %d moved %d -> %d", i, cold.Labels[i], warm.Labels[i])
		}
	}
	if want := 1.0 / float64(len(cold.Labels)); st.Drift != want {
		t.Fatalf("drift %v, want %v", st.Drift, want)
	}
}

// TestWarmRefreshEscalatesPastThreshold checks the drift-escalation rule:
// past the threshold the warm pass re-runs the full Ward linkage.
func TestWarmRefreshEscalatesPastThreshold(t *testing.T) {
	cold := warmBase(t)
	traffic := cold.Dataset.Traffic.Clone()
	// Rewrite a third of the population with rows from other clusters so
	// plenty of antennas genuinely move.
	n := traffic.Rows()
	var dirty []int
	for i := 0; i < n/3; i++ {
		src := (i + n/2) % n
		if cold.Labels[src] == cold.Labels[i] {
			continue
		}
		copy(traffic.Row(i), traffic.Row(src))
		dirty = append(dirty, i)
	}
	warm, st, err := WarmRefresh(cold, traffic, dirty, WarmConfig{DriftThreshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Escalated {
		t.Fatalf("expected escalation, got %+v", st)
	}
	if warm.Linkage == nil {
		t.Fatal("escalated refresh must carry a fresh linkage")
	}
	if len(warm.Labels) != n {
		t.Fatalf("labels length %d, want %d", len(warm.Labels), n)
	}
	for i, l := range warm.Labels {
		if l < 0 || l >= warm.K {
			t.Fatalf("label %d out of range at %d", l, i)
		}
	}
	if warm.Surrogate == nil {
		t.Fatal("escalated refresh must still retrain the model stages")
	}
	// Past the threshold the refresh is the cold pipeline on the new
	// traffic: same labels, same forest, hence the same outdoor verdicts.
	if err := warm.ClassifyOutdoor(context.Background()); err != nil {
		t.Fatal(err)
	}
	nds := *cold.Dataset
	nds.Traffic = traffic
	recold, err := RunOnDataset(&nds, cold.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Labels, recold.Labels) {
		t.Fatal("escalated labels diverge from a cold run on the same traffic")
	}
	if !reflect.DeepEqual(warm.OutdoorLabels, recold.OutdoorLabels) {
		t.Fatal("escalated outdoor verdicts diverge from a cold run on the same traffic")
	}
	if !reflect.DeepEqual(warm.OutdoorShare, recold.OutdoorShare) {
		t.Fatal("escalated outdoor shares diverge from a cold run on the same traffic")
	}
}

// TestWarmRefreshRejectsBadInput covers the guard rails.
func TestWarmRefreshRejectsBadInput(t *testing.T) {
	cold := warmBase(t)
	if _, _, err := WarmRefresh(nil, cold.Dataset.Traffic, nil, WarmConfig{}); err == nil {
		t.Fatal("nil previous result must error")
	}
	if _, _, err := WarmRefresh(cold, nil, nil, WarmConfig{}); err == nil {
		t.Fatal("nil traffic must error")
	}
}

// ingestDrift adds records of mb megabytes each to traffic, every record
// landing on an (antenna, service) cell drawn in proportion to the cell's
// traffic, as perfbench's ingest stream does, and returns the antennas it
// touched.
func ingestDrift(traffic *mat.Dense, r *rng.Source, records int, mb float64) []int {
	cols := traffic.Cols()
	cum := make([]float64, 0, traffic.Rows()*cols)
	sum := 0.0
	for i := 0; i < traffic.Rows(); i++ {
		for _, v := range traffic.Row(i) {
			sum += v
			cum = append(cum, sum)
		}
	}
	touched := make([]bool, traffic.Rows())
	for k := 0; k < records; k++ {
		c := sort.SearchFloat64s(cum, r.Float64()*sum)
		traffic.Row(c / cols)[c%cols] += mb
		touched[c/cols] = true
	}
	var dirty []int
	for i, ok := range touched {
		if ok {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

// surrogateConfig is the forest configuration the pipeline trains res's
// surrogate with.
func surrogateConfig(res *Result) forest.Config {
	return forest.Config{Trees: res.Config.ForestTrees, MaxDepth: res.Config.ForestDepth, Seed: res.Config.Seed + 1}
}

// TestRefreshChainRegrowsColdForest chains 30 warm refreshes, each over
// one more ingest period's drift, and checks every refreshed surrogate
// against a cold forest.TrainContext on that refresh's RSCA and labels:
// regrowing from the previous revision's split record must change nothing
// but the work. Only the first refresh, whose base is cold, replays
// nothing.
func TestRefreshChainRegrowsColdForest(t *testing.T) {
	res := warmBase(t)
	r := rng.New(11)
	for i := 0; i < 30; i++ {
		traffic := res.Dataset.Traffic.Clone()
		dirty := ingestDrift(traffic, r, 2000, 0.0033)
		warm, st, err := WarmRefresh(res, traffic, dirty, WarmConfig{DriftThreshold: DefaultDriftThreshold})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := forest.TrainContext(context.Background(), warm.RSCA, warm.Labels, warm.K, surrogateConfig(warm))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm.Surrogate, cold) {
			t.Fatalf("refresh %d: the regrown surrogate diverges from a cold training", i)
		}
		if warm.SurrogateAccuracy != cold.TrainAccuracy {
			t.Fatalf("refresh %d: surrogate accuracy %v, cold %v", i, warm.SurrogateAccuracy, cold.TrainAccuracy)
		}
		if (i == 0) != (st.ForestReused == 0) || st.ForestScanned == 0 {
			t.Fatalf("refresh %d: scanned %d, replayed %d units", i, st.ForestScanned, st.ForestReused)
		}
		res = warm
	}
}

// TestWarmRefreshForestWork: the refresh's forest work counters do not
// depend on the pool width, and a drift-0 refresh on a warm base replays
// every scan.
func TestWarmRefreshForestWork(t *testing.T) {
	cold := warmBase(t)
	traffic := cold.Dataset.Traffic.Clone()
	dirty := ingestDrift(traffic, rng.New(3), 2000, 0.0033)
	base, first, err := WarmRefresh(cold, traffic, dirty, WarmConfig{DriftThreshold: DefaultDriftThreshold})
	if err != nil {
		t.Fatal(err)
	}

	traffic = base.Dataset.Traffic.Clone()
	dirty = ingestDrift(traffic, rng.New(4), 2000, 0.0033)
	var stats []RefreshStats
	for _, width := range []int{1, 2} {
		ctx := pipe.WithPool(context.Background(), pipe.NewPool(width))
		_, st, err := WarmRefreshContext(ctx, base, traffic, dirty, WarmConfig{DriftThreshold: DefaultDriftThreshold})
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	if stats[0] != stats[1] {
		t.Fatalf("refresh stats %+v on one worker, %+v on two", stats[0], stats[1])
	}
	if stats[0].ForestScanned == 0 || stats[0].ForestReused == 0 {
		t.Fatalf("a drifted refresh must both scan and replay: %+v", stats[0])
	}

	_, st, err := WarmRefresh(base, base.Dataset.Traffic.Clone(), nil, WarmConfig{DriftThreshold: DefaultDriftThreshold})
	if err != nil {
		t.Fatal(err)
	}
	// The base refresh regrew in full from a cold result, so it scanned
	// every unit its forest has.
	if st.ForestScanned != 0 || st.ForestReused != first.ForestScanned {
		t.Fatalf("drift-0 refresh scanned %d and replayed %d units, want 0 and %d",
			st.ForestScanned, st.ForestReused, first.ForestScanned)
	}
}
