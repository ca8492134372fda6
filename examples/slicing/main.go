// Slicing: the Section 7 roadmap of the paper, operationalized. The paper
// argues that "ICN resource orchestration should not target overall
// capacity, as in outdoor environments, but must take into account the
// most important application usage per indoor environment", proposing "a
// distinct network slicing dimension for indoor network resource planning".
//
// This example runs the pipeline, builds the per-cluster demand profiles,
// and derives a slice plan per cluster: the slice type, the services worth
// caching at the edge, the daily peak provisioning window, and the weekend
// capacity scaling.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	icn "repro"
)

func main() {
	result, err := icn.Run(context.Background(), icn.Config{
		Seed:        11,
		Scale:       0.1,
		ForestTrees: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	profiles, err := icn.BuildProfiles(context.Background(), result, icn.ProfileOptions{TopServices: 8})
	if err != nil {
		log.Fatal(err)
	}
	plans := icn.PlanSlices(profiles)

	fmt.Println("environment-aware slice plan (one slice per demand cluster)")
	fmt.Println(strings.Repeat("-", 72))
	for i, plan := range plans {
		p := profiles[i]
		fmt.Printf("cluster %d → slice %q\n", plan.Cluster, plan.SliceName)
		fmt.Printf("  serves       : %s (%.0f%% of cluster), %d antennas total\n",
			p.DominantEnv().Env, p.DominantEnv().Share*100, p.Size)
		fmt.Printf("  peak window  : %02d:00-%02d:00\n", plan.PeakWindow[0], plan.PeakWindow[1])
		fmt.Printf("  weekend scale: %.0f%% of weekday capacity\n", plan.WeekendScaling*100)
		if plan.EventDriven {
			fmt.Println("  provisioning : burst-on-event (venue idle between events)")
		} else {
			fmt.Println("  provisioning : static diurnal")
		}
		if len(plan.CacheServices) > 0 {
			fmt.Printf("  edge caching : %s\n", strings.Join(plan.CacheServices, ", "))
		}
		fmt.Println()
	}

	// Sanity summary: commuter slices must exist, and the enterprise
	// slice must be weekend-scaled down.
	var commuter, enterprise int
	for _, plan := range plans {
		switch plan.SliceName {
		case "commuter-transit":
			commuter++
		case "enterprise":
			enterprise++
			fmt.Printf("enterprise slice weekend scaling: %.2f (expected « 1)\n", plan.WeekendScaling)
		}
	}
	fmt.Printf("slice mix: %d commuter, %d enterprise, %d total\n", commuter, enterprise, len(plans))
}
