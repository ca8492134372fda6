// Command icnprofile runs the pipeline and prints the per-cluster demand
// profiles and the Section 7 slice plans — the operational output an MNO
// planner would consume: which services characterize each cluster, which
// environments it serves, when it peaks, and how to slice and cache for it.
//
// Usage:
//
//	icnprofile [-seed N] [-scale F] [-top N] [-trace]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/envmodel"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 0.15, "fraction of the paper's antenna population")
	top := flag.Int("top", 8, "characterizing services per cluster")
	trace := flag.Bool("trace", false, "print the per-stage pipeline trace")
	flag.Parse()

	res, err := analysis.Run(analysis.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintf(os.Stderr, "icnprofile: %v\n", err)
		os.Exit(1)
	}
	profiles, err := core.BuildProfiles(context.Background(), res, core.Options{TopServices: *top})
	if err != nil {
		fmt.Fprintf(os.Stderr, "icnprofile: %v\n", err)
		os.Exit(1)
	}
	plans := core.PlanSlices(profiles)

	fmt.Printf("pipeline: %d antennas, %d clusters, purity %.3f, Cramér's V %.3f\n\n",
		len(res.Labels), res.K, res.Purity(), res.Contingency.CramersV())
	if *trace {
		fmt.Println("stage trace:")
		fmt.Println(res.Trace())
	}

	for i, p := range profiles {
		fmt.Printf("=== cluster %d (%s group, %d antennas) ===\n", p.Cluster, p.Group, p.Size)
		var envs []string
		for j, e := range p.Environments {
			if j == 3 || e.Share < 0.05 {
				break
			}
			envs = append(envs, fmt.Sprintf("%s %.0f%%", e.Env, e.Share*100))
		}
		fmt.Printf("environments : %s\n", strings.Join(envs, ", "))
		fmt.Printf("temporal     : peak %02d:00, weekend ratio %.2f, strike dip %.2f\n",
			p.PeakHour, p.WeekendRatio, p.StrikeDip)
		var over, under []string
		for _, s := range p.TopServices {
			if s.OverUtilized {
				over = append(over, s.Name)
			} else {
				under = append(under, s.Name)
			}
		}
		if len(over) > 0 {
			fmt.Printf("over-used    : %s\n", strings.Join(over, ", "))
		}
		if len(under) > 0 {
			fmt.Printf("under-used   : %s\n", strings.Join(under, ", "))
		}
		plan := plans[i]
		fmt.Printf("slice plan   : %s, provision %02d:00-%02d:00, weekend %.0f%%",
			plan.SliceName, plan.PeakWindow[0], plan.PeakWindow[1], plan.WeekendScaling*100)
		if plan.EventDriven {
			fmt.Print(", burst-on-event")
		}
		fmt.Println()
		if len(plan.CacheServices) > 0 {
			fmt.Printf("edge caching : %s\n", strings.Join(plan.CacheServices, ", "))
		}
		fmt.Println()
	}

	// Group summary, mirroring the paper's Fig. 3 organization.
	fmt.Println("dendrogram groups:")
	for _, g := range []envmodel.Group{envmodel.GroupOrange, envmodel.GroupGreen, envmodel.GroupRed} {
		var members []string
		for _, p := range profiles {
			if p.Group == g {
				members = append(members, fmt.Sprintf("%d", p.Cluster))
			}
		}
		fmt.Printf("  %-6s clusters %s\n", g, strings.Join(members, ", "))
	}
}
