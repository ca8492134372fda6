// Outdoorcompare: the Section 5.3 experiment as a standalone program. For
// every indoor antenna it finds the outdoor macro cells within a 1 km
// radius (the paper's neighbourhood), computes their RCA against the
// *indoor* reference (Eq. 5), classifies them with the surrogate forest,
// and contrasts the indoor and outdoor cluster distributions — showing
// that the demand diversity intrinsic to indoor deployments is absent
// just outside the buildings.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	icn "repro"
	"repro/internal/geo"
)

// config is the deployment the comparison runs on.
var config = icn.Config{
	Seed:         5,
	Scale:        0.1,
	OutdoorCount: 1500,
	ForestTrees:  50,
}

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run performs the comparison and prints it to w.
func run(ctx context.Context, w io.Writer) error {
	result, err := icn.Run(ctx, config)
	if err != nil {
		return err
	}
	ds := result.Dataset

	// 1 km neighbourhoods: how many outdoor macro cells sit within reach
	// of each indoor antenna?
	outdoorIdx := geo.NewIndex(ds.OutdoorLocations(), 1000)
	withNeighbour, totalNeighbours := 0, 0
	for _, a := range ds.Indoor {
		n := len(outdoorIdx.Within(a.Location, 1000))
		if n > 0 {
			withNeighbour++
		}
		totalNeighbours += n
	}
	fmt.Fprintf(w, "indoor antennas with ≥1 outdoor neighbour within 1 km: %d/%d (mean %.1f neighbours)\n",
		withNeighbour, len(ds.Indoor), float64(totalNeighbours)/float64(len(ds.Indoor)))

	// Cluster distributions, indoor vs outdoor.
	indoorShare := make([]float64, result.K)
	for _, l := range result.Labels {
		indoorShare[l]++
	}
	for i := range indoorShare {
		indoorShare[i] /= float64(len(result.Labels))
	}

	fmt.Fprintln(w, "\ncluster     indoor   outdoor")
	for c := 0; c < result.K; c++ {
		fmt.Fprintf(w, "cluster %d   %5.1f%%   %5.1f%%\n",
			c, indoorShare[c]*100, result.OutdoorShare[c]*100)
	}

	// Diversity as normalized Shannon entropy of the two distributions.
	fmt.Fprintf(w, "\ndemand diversity (normalized entropy): indoor %.2f, outdoor %.2f\n",
		entropy(indoorShare), entropy(result.OutdoorShare))
	fmt.Fprintf(w, "outdoor antennas in the general-use cluster 1: %.0f%% (paper: ~70%%)\n",
		result.OutdoorShare[1]*100)
	return nil
}

// entropy returns the Shannon entropy of the distribution normalized by
// its maximum (log k), in [0, 1].
func entropy(p []float64) float64 {
	nonZero := 0
	for _, v := range p {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero <= 1 {
		return 0
	}
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h / math.Log(float64(len(p)))
}
