package analysis

import (
	"context"
	"sync"
	"testing"

	"repro/internal/services"
	"repro/internal/stats"
)

// clusterProfiles, serviceProfiles and hourlySeries call the temporal
// APIs without cancellation, failing the test on any error.
func clusterProfiles(t *testing.T, r *Result, cap int) []TemporalProfile {
	t.Helper()
	out, err := r.ClusterTemporalProfilesContext(context.Background(), cap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func serviceProfiles(t *testing.T, r *Result, serviceID, cap int) []TemporalProfile {
	t.Helper()
	out, err := r.ServiceTemporalProfilesContext(context.Background(), serviceID, cap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func hourlySeries(t *testing.T, r *Result, clusterID, maxAntennas int) []float64 {
	t.Helper()
	out, err := r.ClusterHourlySeriesContext(context.Background(), clusterID, maxAntennas)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceProfiles replicates the pre-optimization temporal path —
// per-antenna series recomputed per call, per-hour column gather, the
// sort-based stats.Median, stats.Normalize — as the golden parity
// reference for the cached/binned/parallel implementation.
func referenceProfiles(r *Result, serviceID, cap int) []TemporalProfile {
	firstDay, _, hours := r.windowBounds()
	out := make([]TemporalProfile, r.K)
	for c := 0; c < r.K; c++ {
		members := subsample(r.ClusterMembers(c), cap)
		med := make([]float64, hours)
		if len(members) > 0 {
			perAntenna := make([][]float64, len(members))
			for mi, m := range members {
				ant := r.Dataset.Indoor[m]
				if serviceID < 0 {
					perAntenna[mi] = r.Dataset.HourlyTotals(ant)
				} else {
					perAntenna[mi] = r.Dataset.HourlyService(ant, serviceID)
				}
			}
			offset := firstDay * 24
			column := make([]float64, len(members))
			for h := 0; h < hours; h++ {
				for mi := range members {
					column[mi] = perAntenna[mi][offset+h]
				}
				med[h] = stats.Median(column)
			}
		}
		out[c] = TemporalProfile{Cluster: c, FirstDay: firstDay, Hours: stats.Normalize(med)}
	}
	return out
}

// The rebuilt temporal stage must reproduce the pre-optimization
// profiles bit-for-bit: same medians, same normalization, for totals and
// per-service traffic alike.
func TestTemporalProfilesGoldenParity(t *testing.T) {
	r := testResult(t)
	for _, serviceID := range []int{-1, services.MustID("Netflix")} {
		var got []TemporalProfile
		if serviceID < 0 {
			got = clusterProfiles(t, r, 25)
		} else {
			got = serviceProfiles(t, r, serviceID, 25)
		}
		want := referenceProfiles(r, serviceID, 25)
		if len(got) != len(want) {
			t.Fatalf("service %d: %d profiles, want %d", serviceID, len(got), len(want))
		}
		for c := range want {
			if got[c].Cluster != want[c].Cluster || got[c].FirstDay != want[c].FirstDay {
				t.Fatalf("service %d cluster %d: header mismatch", serviceID, c)
			}
			for h := range want[c].Hours {
				if got[c].Hours[h] != want[c].Hours[h] {
					t.Fatalf("service %d cluster %d hour %d: %v != %v (not bit-identical)",
						serviceID, c, h, got[c].Hours[h], want[c].Hours[h])
				}
			}
		}
	}
}

// The counting-sort medians must be value-identical to the sort-based
// stats.Median on the same cached series, for the windowed profiles and
// the full-calendar forecasting series alike.
func TestTemporalProfilesExactSortParity(t *testing.T) {
	r := testResult(t)
	sortMedians := func(perAntenna [][]float64, offset, hours int) []float64 {
		med := make([]float64, hours)
		column := make([]float64, len(perAntenna))
		for h := range med {
			for mi := range perAntenna {
				column[mi] = perAntenna[mi][offset+h]
			}
			med[h] = stats.Median(column)
		}
		return med
	}
	got := clusterProfiles(t, r, 25)
	firstDay, _, hours := r.windowBounds()
	for c := range got {
		perAntenna := r.cachedSeries(subsample(r.ClusterMembers(c), 25), -1)
		want := stats.Normalize(sortMedians(perAntenna, firstDay*24, hours))
		for h := range want {
			if got[c].Hours[h] != want[h] {
				t.Fatalf("cluster %d hour %d: binned %v != exact-sort %v", c, h, got[c].Hours[h], want[h])
			}
		}
	}
	series := hourlySeries(t, r, 0, 10)
	want := sortMedians(r.cachedSeries(subsample(r.ClusterMembers(0), 10), -1), 0, len(series))
	for h := range want {
		if series[h] != want[h] {
			t.Fatalf("hourly series hour %d: binned %v != exact-sort %v", h, series[h], want[h])
		}
	}
}

// Concurrent first callers of one (service, cap) key must coalesce onto
// a single computation (the check-then-store race this replaces produced
// duplicate fan-outs and divergent cached slices). Run with -race.
func TestTemporalProfilesSingleFlight(t *testing.T) {
	r := testResult(t)
	const callers = 8
	results := make([][]TemporalProfile, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.ClusterTemporalProfilesContext(context.Background(), 17)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a distinct profile slice — computation was not single-flight", i)
		}
	}
}

// A cancelled context aborts the computation with ctx.Err() and forgets
// the in-flight entry, so a later caller retries successfully.
func TestTemporalProfilesContextCancelled(t *testing.T) {
	r := testResult(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ClusterTemporalProfilesContext(ctx, 13); err == nil {
		t.Fatal("cancelled context did not surface an error")
	}
	out, err := r.ClusterTemporalProfilesContext(context.Background(), 13)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if len(out) != r.K {
		t.Fatalf("retry returned %d profiles, want %d", len(out), r.K)
	}
	if _, err := r.ClusterHourlySeriesContext(ctx, 0, 7); err == nil {
		t.Fatal("cancelled context did not surface an error from the series path")
	}
}

// The forecasting series must match its pre-optimization derivation.
func TestClusterHourlySeriesGoldenParity(t *testing.T) {
	r := testResult(t)
	members := subsample(r.ClusterMembers(2), 10)
	hours := r.Dataset.Cal.Hours()
	perHour := make([][]float64, hours)
	for _, idx := range members {
		series := r.Dataset.HourlyTotals(r.Dataset.Indoor[idx])
		for h := 0; h < hours; h++ {
			perHour[h] = append(perHour[h], series[h])
		}
	}
	got := hourlySeries(t, r, 2, 10)
	for h := 0; h < hours; h++ {
		if want := stats.Median(perHour[h]); got[h] != want {
			t.Fatalf("hour %d: %v != %v (not bit-identical)", h, got[h], want)
		}
	}
}
