// Package core distills a pipeline run into the paper's primary
// contribution: per-cluster indoor service-demand profiles — which mobile
// services characterize each cluster (via SHAP), which environments it
// serves, and how its demand moves over time — and the Section 7 roadmap
// operationalized: environment-aware slice planning and content-caching
// recommendations derived from those profiles ("the indoor slices will be
// tuned based on the characterizing applications for that specific indoor
// environment").
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/envmodel"
	"repro/internal/services"
)

// ServiceTrend is one characterizing service of a cluster.
type ServiceTrend struct {
	// Service is the feature index into the services catalog.
	Service int
	// Name is the service display name.
	Name string
	// Importance is the mean |SHAP| value of the service for the cluster.
	Importance float64
	// OverUtilized is true when cluster membership is driven by high RSCA
	// (over-utilization) of the service, false for under-utilization.
	OverUtilized bool
}

// EnvShare is one environment's share of a cluster's antennas.
type EnvShare struct {
	Env   envmodel.EnvType
	Share float64
}

// Profile is the demand profile of one discovered cluster.
type Profile struct {
	// Cluster is the paper-aligned cluster id (0-8).
	Cluster int
	// Group is the dendrogram branch (orange/green/red).
	Group envmodel.Group
	// Size is the number of antennas in the cluster.
	Size int
	// Environments lists environment shares, descending.
	Environments []EnvShare
	// TopServices lists the characterizing services, by importance.
	TopServices []ServiceTrend
	// PeakHour is the hour-of-day of maximum median demand.
	PeakHour int
	// WeekendRatio is mean weekend traffic over mean weekday traffic.
	WeekendRatio float64
	// StrikeDip is strike-day traffic relative to the prior week.
	StrikeDip float64
}

// Options bounds profile construction.
type Options struct {
	// TopServices bounds the characterizing-service list (default 10).
	TopServices int
	// TemporalAntennas bounds the per-cluster temporal sample (default 30).
	TemporalAntennas int
}

func (o Options) withDefaults() Options {
	if o.TopServices <= 0 {
		o.TopServices = 10
	}
	if o.TemporalAntennas <= 0 {
		o.TemporalAntennas = 30
	}
	return o
}

// BuildProfiles derives one Profile per cluster from a pipeline result.
// The only failure mode is ctx cancellation during the temporal fan-out.
func BuildProfiles(ctx context.Context, res *analysis.Result, opts Options) ([]Profile, error) {
	opts = opts.withDefaults()
	names := services.Names()
	rowShares := res.Contingency.RowShares()
	temporal, err := res.ClusterTemporalProfilesContext(ctx, opts.TemporalAntennas)
	if err != nil {
		return nil, fmt.Errorf("core: temporal profiles: %w", err)
	}
	sizes := res.ClusterSizes()

	profiles := make([]Profile, res.K)
	for c := 0; c < res.K; c++ {
		p := Profile{
			Cluster:      c,
			Group:        envmodel.GroupOf(c),
			Size:         sizes[c],
			PeakHour:     temporal[c].PeakHour(),
			WeekendRatio: temporal[c].WeekendWeekdayRatio(res),
			StrikeDip:    temporal[c].StrikeDip(res),
		}
		for j, share := range rowShares[c] {
			if share > 0 {
				p.Environments = append(p.Environments, EnvShare{envmodel.EnvType(j), share})
			}
		}
		sort.SliceStable(p.Environments, func(a, b int) bool {
			return p.Environments[a].Share > p.Environments[b].Share
		})
		summary := res.ExplainCluster(c, opts.TopServices)
		for _, im := range summary.Importances {
			p.TopServices = append(p.TopServices, ServiceTrend{
				Service:      im.Feature,
				Name:         names[im.Feature],
				Importance:   im.MeanAbs,
				OverUtilized: im.ValueCorrelation > 0,
			})
		}
		profiles[c] = p
	}
	return profiles, nil
}

// DominantEnv returns the profile's leading environment.
func (p Profile) DominantEnv() EnvShare {
	if len(p.Environments) == 0 {
		return EnvShare{}
	}
	return p.Environments[0]
}

// OverUtilizedServices returns the over-utilized characterizing services.
func (p Profile) OverUtilizedServices() []ServiceTrend {
	var out []ServiceTrend
	for _, s := range p.TopServices {
		if s.OverUtilized {
			out = append(out, s)
		}
	}
	return out
}

// String renders a one-paragraph profile summary.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster %d (%s, %d antennas): dominant env %s (%.0f%%), peak hour %02d:00, weekend ratio %.2f",
		p.Cluster, p.Group, p.Size, p.DominantEnv().Env, p.DominantEnv().Share*100, p.PeakHour, p.WeekendRatio)
	if over := p.OverUtilizedServices(); len(over) > 0 {
		names := make([]string, 0, 3)
		for i, s := range over {
			if i == 3 {
				break
			}
			names = append(names, s.Name)
		}
		fmt.Fprintf(&b, "; characterizing apps: %s", strings.Join(names, ", "))
	}
	return b.String()
}

// SlicePlan is an environment-aware network-slice recommendation for one
// cluster, the Section 7 use case ("adaptive power transmission control or
// content caching according to the insights provided by our analysis").
type SlicePlan struct {
	// Cluster the plan applies to.
	Cluster int
	// SliceName is a human-readable slice label.
	SliceName string
	// CacheServices are the over-utilized services worth caching at the
	// network edge for this cluster.
	CacheServices []string
	// PeakWindow is the [start, end) hour-of-day window that capacity
	// provisioning must cover.
	PeakWindow [2]int
	// WeekendScaling is the suggested weekend capacity relative to
	// weekday capacity.
	WeekendScaling float64
	// EventDriven marks venues needing burst capacity on demand instead
	// of static provisioning.
	EventDriven bool
}

// PlanSlices derives a slice plan per cluster profile.
func PlanSlices(profiles []Profile) []SlicePlan {
	plans := make([]SlicePlan, 0, len(profiles))
	for _, p := range profiles {
		plan := SlicePlan{
			Cluster:        p.Cluster,
			SliceName:      sliceName(p),
			PeakWindow:     peakWindow(p.PeakHour),
			WeekendScaling: clamp(p.WeekendRatio, 0.05, 1.5),
			EventDriven:    p.Group == envmodel.GroupGreen,
		}
		for i, s := range p.OverUtilizedServices() {
			if i == 5 {
				break
			}
			plan.CacheServices = append(plan.CacheServices, s.Name)
		}
		plans = append(plans, plan)
	}
	return plans
}

func sliceName(p Profile) string {
	env := p.DominantEnv().Env
	switch {
	case p.Group == envmodel.GroupOrange:
		return "commuter-transit"
	case p.Group == envmodel.GroupGreen && env == envmodel.Stadium:
		return "event-venue"
	case p.Group == envmodel.GroupGreen:
		return "low-intensity-venue"
	case env == envmodel.Workspace:
		return "enterprise"
	case env == envmodel.Commercial || env == envmodel.Hotel || env == envmodel.Hospital:
		return "commercial-hospitality"
	default:
		return "general-embb"
	}
}

// peakWindow widens the peak hour into a provisioning window.
func peakWindow(peak int) [2]int {
	start := peak - 2
	if start < 0 {
		start = 0
	}
	end := peak + 3
	if end > 24 {
		end = 24
	}
	return [2]int{start, end}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
