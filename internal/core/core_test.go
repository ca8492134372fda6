package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/envmodel"
)

var resultCache *analysis.Result

func testResult(t *testing.T) *analysis.Result {
	t.Helper()
	if resultCache == nil {
		res, err := analysis.Run(analysis.Config{
			Seed:         42,
			Scale:        0.1,
			OutdoorCount: 200,
			ForestTrees:  30,
		})
		if err != nil {
			t.Fatal(err)
		}
		resultCache = res
	}
	return resultCache
}

func buildProfiles(t *testing.T, res *analysis.Result, opts Options) []Profile {
	t.Helper()
	profiles, err := BuildProfiles(context.Background(), res, opts)
	if err != nil {
		t.Fatal(err)
	}
	return profiles
}

func TestBuildProfilesComplete(t *testing.T) {
	res := testResult(t)
	profiles := buildProfiles(t, res, Options{})
	if len(profiles) != res.K {
		t.Fatalf("%d profiles for %d clusters", len(profiles), res.K)
	}
	sizes := res.ClusterSizes()
	for c, p := range profiles {
		if p.Cluster != c {
			t.Fatalf("profile %d has cluster %d", c, p.Cluster)
		}
		if p.Size != sizes[c] {
			t.Fatalf("profile %d size %d want %d", c, p.Size, sizes[c])
		}
		if p.Group != envmodel.GroupOf(c) {
			t.Fatalf("profile %d group mismatch", c)
		}
		if len(p.TopServices) == 0 || len(p.TopServices) > 10 {
			t.Fatalf("profile %d has %d top services", c, len(p.TopServices))
		}
		if len(p.Environments) == 0 {
			t.Fatalf("profile %d has no environments", c)
		}
		// Environments sorted descending and sum to ~1.
		var sum float64
		for i, e := range p.Environments {
			sum += e.Share
			if i > 0 && e.Share > p.Environments[i-1].Share {
				t.Fatalf("profile %d environments unsorted", c)
			}
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("profile %d env shares sum %v", c, sum)
		}
		if p.PeakHour < 0 || p.PeakHour > 23 {
			t.Fatalf("profile %d peak hour %d", c, p.PeakHour)
		}
	}
}

func TestProfilesMatchPaperNarrative(t *testing.T) {
	res := testResult(t)
	profiles := buildProfiles(t, res, Options{})
	// Orange clusters: transit-dominated.
	for _, c := range []int{0, 4, 7} {
		env := profiles[c].DominantEnv().Env
		if env != envmodel.Metro && env != envmodel.Train {
			t.Fatalf("cluster %d dominant env %v, want transit", c, env)
		}
	}
	// Cluster 3: workspaces, weekend-idle.
	if profiles[3].DominantEnv().Env != envmodel.Workspace {
		t.Fatalf("cluster 3 dominant env %v", profiles[3].DominantEnv().Env)
	}
	if profiles[3].WeekendRatio > 0.5 {
		t.Fatalf("cluster 3 weekend ratio %.2f", profiles[3].WeekendRatio)
	}
	// Orange strike dip deeper than cluster 2's.
	if profiles[0].StrikeDip >= profiles[2].StrikeDip {
		t.Fatalf("strike dips: commuter %.2f vs retail %.2f",
			profiles[0].StrikeDip, profiles[2].StrikeDip)
	}
	// Over-utilized services present for the workspace cluster.
	over := profiles[3].OverUtilizedServices()
	if len(over) == 0 {
		t.Fatal("cluster 3 has no over-utilized services")
	}
	foundBusiness := false
	for _, s := range over {
		if s.Name == "Microsoft Teams" || s.Name == "LinkedIn" || s.Name == "Outlook" {
			foundBusiness = true
		}
	}
	if !foundBusiness {
		t.Fatalf("cluster 3 over-utilized services %v lack business apps", over)
	}
}

func TestProfileString(t *testing.T) {
	res := testResult(t)
	profiles := buildProfiles(t, res, Options{TopServices: 5})
	s := profiles[3].String()
	if !strings.Contains(s, "cluster 3") || !strings.Contains(s, "antennas") {
		t.Fatalf("profile string: %s", s)
	}
}

func TestPlanSlices(t *testing.T) {
	res := testResult(t)
	profiles := buildProfiles(t, res, Options{})
	plans := PlanSlices(profiles)
	if len(plans) != len(profiles) {
		t.Fatal("plan count")
	}
	byCluster := map[int]SlicePlan{}
	for _, p := range plans {
		byCluster[p.Cluster] = p
		if p.PeakWindow[0] < 0 || p.PeakWindow[1] > 24 || p.PeakWindow[0] >= p.PeakWindow[1] {
			t.Fatalf("cluster %d peak window %v", p.Cluster, p.PeakWindow)
		}
		if p.WeekendScaling < 0.05 || p.WeekendScaling > 1.5 {
			t.Fatalf("cluster %d weekend scaling %v", p.Cluster, p.WeekendScaling)
		}
	}
	// Commuter slices for the orange group.
	for _, c := range []int{0, 4, 7} {
		if byCluster[c].SliceName != "commuter-transit" {
			t.Fatalf("cluster %d slice %q", c, byCluster[c].SliceName)
		}
	}
	// Enterprise slice for workspaces; event-driven for the green group.
	if byCluster[3].SliceName != "enterprise" {
		t.Fatalf("cluster 3 slice %q", byCluster[3].SliceName)
	}
	for _, c := range []int{5, 6, 8} {
		if !byCluster[c].EventDriven {
			t.Fatalf("cluster %d should be event-driven", c)
		}
	}
	// Cache recommendations exist and are bounded.
	for _, p := range plans {
		if len(p.CacheServices) > 5 {
			t.Fatalf("cluster %d has %d cache services", p.Cluster, len(p.CacheServices))
		}
	}
}

func TestPeakWindowBounds(t *testing.T) {
	if w := peakWindow(0); w[0] != 0 || w[1] != 3 {
		t.Fatalf("peakWindow(0) = %v", w)
	}
	if w := peakWindow(23); w[0] != 21 || w[1] != 24 {
		t.Fatalf("peakWindow(23) = %v", w)
	}
	if w := peakWindow(12); w[0] != 10 || w[1] != 15 {
		t.Fatalf("peakWindow(12) = %v", w)
	}
}

func TestClamp(t *testing.T) {
	if clamp(-1, 0, 1) != 0 || clamp(2, 0, 1) != 1 || clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp")
	}
}
