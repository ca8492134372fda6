// Quickstart: run the full pipeline of the paper on a small synthetic
// deployment and print what it discovers — the clusters, their purity
// against the generator's hidden ground truth, the environment
// association, and one profile per cluster.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	icn "repro"
)

// config is the deployment the quickstart analyses. A 10% deployment
// keeps the run to a couple of seconds. Scale: 1 reproduces the paper's
// full population (4,762 indoor antennas).
var config = icn.Config{
	Seed:        1,
	Scale:       0.1,
	ForestTrees: 50,
}

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run analyses the deployment and prints its findings to w.
func run(ctx context.Context, w io.Writer) error {
	result, err := icn.Run(ctx, config)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "indoor antennas: %d across %d sites\n",
		len(result.Dataset.Indoor), result.Dataset.Sites)
	fmt.Fprintf(w, "clusters (k=%d): sizes %v\n", result.K, result.ClusterSizes())
	fmt.Fprintf(w, "purity vs hidden archetypes: %.3f (ARI %.3f)\n",
		result.Purity(), result.AdjustedRandIndex())
	fmt.Fprintf(w, "surrogate forest accuracy: %.3f\n", result.SurrogateAccuracy)
	fmt.Fprintf(w, "cluster/environment association (Cramér's V): %.3f\n",
		result.Contingency.CramersV())
	fmt.Fprintf(w, "outdoor antennas in the general-use cluster: %.0f%%\n",
		result.OutdoorShare[1]*100)

	fmt.Fprintln(w, "\nper-cluster profiles:")
	profiles, err := icn.BuildProfiles(ctx, result, icn.ProfileOptions{TopServices: 5})
	if err != nil {
		return err
	}
	for _, p := range profiles {
		fmt.Fprintln(w, "  "+p.String())
	}
	return nil
}
