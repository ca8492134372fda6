// Eventdetection: the Section 6 temporal analysis as an operational tool.
// The paper observes that stadium and expo clusters show "sporadic,
// non-canonical bursts of data usage" tied to events (an NBA game at Accor
// Arena, the Sirha fair at Eurexpo Lyon). This example scans the hourly
// traffic of event-driven venues, detects bursts with a robust
// median/MAD detector, and checks them against the generator's hidden
// event calendar — the kind of monitoring an MNO would run for proactive
// capacity management.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	icn "repro"
	"repro/internal/envmodel"
	"repro/internal/synth"
)

// datasetConfig is the campaign the scan runs on.
var datasetConfig = icn.DatasetConfig{Seed: 9, Scale: 0.15, OutdoorCount: 10}

// burstThreshold is the detector's cut, in MADs above the median day peak.
const burstThreshold = 6.0

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// eventVenue reports whether a is a stadium or expo antenna with at least
// one scheduled event: the antennas the scan covers.
func eventVenue(a *synth.Antenna) bool {
	return (a.Env == envmodel.Stadium || a.Env == envmodel.Expo) && len(a.Events()) > 0
}

// run scans every event venue and prints the first venue's bursts and the
// detector's precision and recall to w.
func run(ctx context.Context, w io.Writer) error {
	ds := icn.GenerateDataset(datasetConfig)

	var truePositives, falseNegatives, falsePositives, venues int
	for _, a := range ds.Indoor {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !eventVenue(a) {
			continue
		}
		venues++
		detected := detectBurstDays(ds.HourlyTotals(a), burstThreshold)

		actual := map[int]bool{}
		for _, ev := range a.Events() {
			for d := ev.FirstDay; d <= ev.LastDay; d++ {
				actual[d] = true
			}
		}
		for d := range actual {
			if detected[d] {
				truePositives++
			} else {
				falseNegatives++
			}
		}
		for d := range detected {
			if !actual[d] {
				falsePositives++
			}
		}
		if venues == 1 {
			fmt.Fprintf(w, "example venue %s (%s):\n", a.Name, a.Env)
			var days []int
			for d := range detected {
				days = append(days, d)
			}
			sort.Ints(days)
			for _, d := range days {
				marker := "UNEXPECTED"
				if actual[d] {
					marker = "matches scheduled event"
				}
				fmt.Fprintf(w, "  burst on %s — %s\n", ds.Cal.DateString(d), marker)
			}
		}
	}

	precision := float64(truePositives) / float64(truePositives+falsePositives)
	recall := float64(truePositives) / float64(truePositives+falseNegatives)
	fmt.Fprintf(w, "\nscanned %d event venues\n", venues)
	fmt.Fprintf(w, "event-day detection: precision %.2f, recall %.2f (%d TP / %d FP / %d FN)\n",
		precision, recall, truePositives, falsePositives, falseNegatives)
	return nil
}

// detectBurstDays flags days whose peak hourly traffic exceeds the venue's
// median day-peak by more than threshold × MAD.
func detectBurstDays(series []float64, threshold float64) map[int]bool {
	days := len(series) / 24
	peaks := make([]float64, days)
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			if v := series[d*24+h]; v > peaks[d] {
				peaks[d] = v
			}
		}
	}
	med := median(peaks)
	devs := make([]float64, days)
	for d, p := range peaks {
		devs[d] = abs(p - med)
	}
	mad := median(devs)
	if mad == 0 {
		mad = med * 0.1
	}
	out := map[int]bool{}
	for d, p := range peaks {
		if p > med+threshold*mad {
			out[d] = true
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
