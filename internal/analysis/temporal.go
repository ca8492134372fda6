package analysis

import (
	"context"
	"fmt"

	"repro/internal/forecast"
	"repro/internal/pipe"
	"repro/internal/report"
	"repro/internal/stats"
)

// TemporalProfile is the Fig. 10/11 artifact for one cluster: the
// normalized median traffic per hour across the cluster's antennas over
// the analysis window (2023-01-04 → 2023-01-24).
type TemporalProfile struct {
	Cluster int
	// Hours holds one value per hour of the window, normalized to the
	// profile's own maximum (as the paper's heatmaps are).
	Hours []float64
	// FirstDay is the calendar day index the window starts at.
	FirstDay int
}

// windowBounds returns the analysis window and its hour count.
func (r *Result) windowBounds() (firstDay, lastDay, hours int) {
	firstDay, lastDay = r.Dataset.Cal.AnalysisWindow()
	hours = (lastDay - firstDay + 1) * 24
	return firstDay, lastDay, hours
}

// ClusterTemporalProfilesContext computes the Fig. 10 per-cluster
// heatmaps: for every cluster, the median across member antennas of
// hourly total traffic, normalized to the cluster's maximum.
// maxAntennasPerCluster bounds the per-cluster sample for tractability
// (0 = all members). Results are memoized per cap with single-flight
// semantics — concurrent callers of the same key block on one
// computation — and must be treated as read-only by callers. The only
// failure mode is ctx cancellation.
func (r *Result) ClusterTemporalProfilesContext(ctx context.Context, maxAntennasPerCluster int) ([]TemporalProfile, error) {
	return r.temporalProfiles(ctx, -1, maxAntennasPerCluster)
}

// ServiceTemporalProfilesContext computes the Fig. 11 heatmaps for one
// service: per cluster, the normalized median of the service's hourly
// traffic. Results are memoized per (service, cap) with single-flight
// semantics and must be treated as read-only by callers.
func (r *Result) ServiceTemporalProfilesContext(ctx context.Context, serviceID, maxAntennasPerCluster int) ([]TemporalProfile, error) {
	return r.temporalProfiles(ctx, serviceID, maxAntennasPerCluster)
}

// temporalProfiles returns the memoized per-cluster profile set for one
// service (-1 = total traffic) at the given antenna cap, computing it
// with single-flight semantics on a miss: the first caller of a key
// installs an in-flight entry and computes; concurrent callers of the
// same key wait on the entry (or their own ctx) instead of duplicating
// the pool fan-out. A cancelled computation is forgotten so a later
// caller can retry.
func (r *Result) temporalProfiles(ctx context.Context, serviceID, cap int) ([]TemporalProfile, error) {
	key := temporalKey{service: serviceID, cap: cap}
	r.mu.Lock()
	if r.temporalCache == nil {
		r.temporalCache = map[temporalKey]*temporalEntry{}
	}
	e, inflight := r.temporalCache[key]
	if !inflight {
		e = &temporalEntry{done: make(chan struct{})}
		r.temporalCache[key] = e
	}
	r.mu.Unlock()

	if inflight {
		select {
		case <-e.done:
			return e.profiles, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	e.profiles, e.err = r.computeTemporalProfiles(ctx, serviceID, cap)
	if e.err != nil {
		r.mu.Lock()
		delete(r.temporalCache, key)
		r.mu.Unlock()
	}
	close(e.done)
	return e.profiles, e.err
}

// computeTemporalProfiles is the cache-miss path of temporalProfiles:
// one pool pass fills the per-antenna series cache for the union of all
// sampled members, then the per-cluster median/normalize reductions run
// concurrently, one cluster per pool item with its own scratch arenas.
func (r *Result) computeTemporalProfiles(ctx context.Context, serviceID, cap int) ([]TemporalProfile, error) {
	firstDay, _, hours := r.windowBounds()
	members := make([][]int, r.K)
	for c := 0; c < r.K; c++ {
		members[c] = subsample(r.ClusterMembers(c), cap)
	}
	if err := r.fillSeriesCache(ctx, members, serviceID); err != nil {
		return nil, err
	}
	out := make([]TemporalProfile, r.K)
	err := pipe.FromContext(ctx).ForEach(ctx, r.K, func(c int) {
		perAntenna := r.cachedSeries(members[c], serviceID)
		med := medianWindow(perAntenna, firstDay*24, hours)
		out[c] = TemporalProfile{Cluster: c, FirstDay: firstDay, Hours: stats.Normalize(med)}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillSeriesCache ensures the per-antenna hourly series of every listed
// member is cached for the given service (-1 = totals). The expensive
// series syntheses run once per (antenna, service) for the lifetime of
// the Result — the (service, cap) profile key space and the forecasting
// series reuse the same slices — distributed over the context's worker
// pool.
func (r *Result) fillSeriesCache(ctx context.Context, members [][]int, serviceID int) error {
	r.mu.Lock()
	if r.seriesCache == nil {
		r.seriesCache = map[seriesKey][]float64{}
	}
	var missing []int
	seen := make(map[int]bool)
	for _, ms := range members {
		for _, idx := range ms {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			if _, ok := r.seriesCache[seriesKey{antenna: idx, service: serviceID}]; !ok {
				missing = append(missing, idx)
			}
		}
	}
	r.mu.Unlock()
	if len(missing) == 0 {
		return ctx.Err()
	}
	series := make([][]float64, len(missing))
	err := pipe.FromContext(ctx).ForEach(ctx, len(missing), func(i int) {
		ant := r.Dataset.Indoor[missing[i]]
		if serviceID < 0 {
			series[i] = r.Dataset.HourlyTotals(ant)
		} else {
			series[i] = r.Dataset.HourlyService(ant, serviceID)
		}
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	for i, idx := range missing {
		r.seriesCache[seriesKey{antenna: idx, service: serviceID}] = series[i]
	}
	r.mu.Unlock()
	return nil
}

// cachedSeries returns the cached hourly series of the given members in
// member order. Every entry must have been filled by fillSeriesCache
// first; the cache only grows, so the returned slices stay valid without
// holding the lock.
func (r *Result) cachedSeries(members []int, serviceID int) [][]float64 {
	out := make([][]float64, len(members))
	r.mu.Lock()
	for i, idx := range members {
		out[i] = r.seriesCache[seriesKey{antenna: idx, service: serviceID}]
	}
	r.mu.Unlock()
	return out
}

// medianWindow reduces per-antenna hourly series to the per-hour median
// over [offset, offset+hours). One column buffer and one counting-sort
// scratch are reused across all hours; the result is value-identical to
// the sort-based stats.Median (see TestTemporalProfilesExactSortParity).
func medianWindow(perAntenna [][]float64, offset, hours int) []float64 {
	med := make([]float64, hours)
	if len(perAntenna) == 0 {
		return med
	}
	column := make([]float64, len(perAntenna))
	scratch := stats.NewMedianScratch()
	for h := 0; h < hours; h++ {
		for mi := range perAntenna {
			column[mi] = perAntenna[mi][offset+h]
		}
		med[h] = scratch.Median(column)
	}
	return med
}

// ClusterHourlySeriesContext returns the un-normalized per-hour median
// traffic of a cluster's antennas over the *entire* measurement calendar
// (65 days), the input needed by seasonal forecasting models (the
// proactive management roadmap of Section 7). maxAntennas bounds the
// median sample. The per-antenna series are shared with the profile
// cache; the only failure mode is ctx cancellation.
func (r *Result) ClusterHourlySeriesContext(ctx context.Context, clusterID, maxAntennas int) ([]float64, error) {
	members := subsample(r.ClusterMembers(clusterID), maxAntennas)
	hours := r.Dataset.Cal.Hours()
	if len(members) == 0 {
		return make([]float64, hours), nil
	}
	if err := r.fillSeriesCache(ctx, [][]int{members}, -1); err != nil {
		return nil, err
	}
	perAntenna := r.cachedSeries(members, -1)
	return medianWindow(perAntenna, 0, hours), nil
}

// RefitForecasts retrains the busy-hour forecast set from scratch on this
// result's current traffic and labels — the same deterministic fit the
// forecast stage runs, so the returned set's Digest matches
// Result.Forecasts bit-for-bit. Offline parity audits and the forecast
// benchmark's training-time measurement use it; serving reads the
// published Forecasts field instead. A result without a dataset (a Slim
// copy) has no traffic to refit on and returns an error.
func (r *Result) RefitForecasts(ctx context.Context) (*forecast.Set, error) {
	if r.Dataset == nil {
		return nil, fmt.Errorf("analysis: refit forecasts: result holds no dataset (a slim copy)")
	}
	return fitForecastSet(ctx, r.Dataset, r.Config, r.K, r.Labels)
}

// DayNight splits a profile into per-day rows of 24 hours, for heatmap
// rendering (days as rows).
func (p TemporalProfile) DayRows() [][]float64 {
	days := len(p.Hours) / 24
	out := make([][]float64, days)
	for d := 0; d < days; d++ {
		out[d] = p.Hours[d*24 : (d+1)*24]
	}
	return out
}

// PeakHour returns the hour-of-day at which the profile's weekday mass
// peaks, aggregated across days.
func (p TemporalProfile) PeakHour() int {
	var byHour [24]float64
	for h, v := range p.Hours {
		byHour[h%24] += v
	}
	best, bestV := 0, -1.0
	for h, v := range byHour {
		if v > bestV {
			bestV = v
			best = h
		}
	}
	return best
}

// WeekendWeekdayRatio returns the ratio of mean weekend traffic to mean
// weekday traffic over the profile window — near zero for offices, around
// one for retail.
func (p TemporalProfile) WeekendWeekdayRatio(r *Result) float64 {
	cal := r.Dataset.Cal
	var we, wd float64
	var weN, wdN int
	for h, v := range p.Hours {
		day := p.FirstDay + h/24
		if cal.IsWeekend(day) {
			we += v
			weN++
		} else {
			wd += v
			wdN++
		}
	}
	if wdN == 0 || wd == 0 {
		return 0
	}
	return (we / float64(weN)) / (wd / float64(wdN))
}

// StrikeDip returns the ratio of strike-day traffic to the same weekday
// one week earlier (both within the window); values near 0 indicate the
// deep commuter trough of Fig. 10.
func (p TemporalProfile) StrikeDip(r *Result) float64 {
	sd := r.Dataset.Cal.StrikeDay()
	ref := sd - 7
	if sd < p.FirstDay || ref < p.FirstDay {
		return 1
	}
	var strike, refSum float64
	for h := 0; h < 24; h++ {
		strike += p.Hours[(sd-p.FirstDay)*24+h]
		refSum += p.Hours[(ref-p.FirstDay)*24+h]
	}
	if refSum == 0 {
		return 1
	}
	return strike / refSum
}

// SankeyFlows converts the contingency table into Fig. 6 flows.
func (r *Result) SankeyFlows() []report.Flow {
	var flows []report.Flow
	for i, row := range r.Contingency.Counts {
		for j, v := range row {
			if v == 0 {
				continue
			}
			flows = append(flows, report.Flow{
				From:  r.Contingency.RowLabels[i],
				To:    r.Contingency.ColLabels[j],
				Count: v,
			})
		}
	}
	return flows
}
