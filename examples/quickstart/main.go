// Quickstart: run the full pipeline of the paper on a small synthetic
// deployment and print what it discovers — the clusters, their purity
// against the generator's hidden ground truth, the environment
// association, and one profile per cluster.
package main

import (
	"context"
	"fmt"
	"log"

	icn "repro"
)

func main() {
	// A 10% deployment keeps the run to a couple of seconds. Scale: 1
	// reproduces the paper's full population (4,762 indoor antennas).
	result, err := icn.Run(context.Background(), icn.Config{
		Seed:        1,
		Scale:       0.1,
		ForestTrees: 50,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("indoor antennas: %d across %d sites\n",
		len(result.Dataset.Indoor), result.Dataset.Sites)
	fmt.Printf("clusters (k=%d): sizes %v\n", result.K, result.ClusterSizes())
	fmt.Printf("purity vs hidden archetypes: %.3f (ARI %.3f)\n",
		result.Purity(), result.AdjustedRandIndex())
	fmt.Printf("surrogate forest accuracy: %.3f\n", result.SurrogateAccuracy)
	fmt.Printf("cluster/environment association (Cramér's V): %.3f\n",
		result.Contingency.CramersV())
	fmt.Printf("outdoor antennas in the general-use cluster: %.0f%%\n",
		result.OutdoorShare[1]*100)

	fmt.Println("\nper-cluster profiles:")
	profiles, err := icn.BuildProfiles(context.Background(), result, icn.ProfileOptions{TopServices: 5})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range profiles {
		fmt.Println("  " + p.String())
	}
}
