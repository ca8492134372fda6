package synth_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/synth"
)

// The weight-grid cache is bounded by the distinct (template, event
// schedule) pairs, not by the antennas whose series are built: after a
// scale-0.25 cold run and the hourly totals of every indoor and outdoor
// antenna, one grid per pair is built and the grids hold at most that
// many grids' bytes.
func TestWeightGridsBoundedByPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.25 cold run")
	}
	res, err := analysis.Run(analysis.Config{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.Dataset
	for _, a := range ds.Indoor {
		ds.HourlyTotals(a)
	}
	for _, a := range ds.Outdoor {
		ds.HourlyTotals(a)
	}
	pairs, grids, built, bytes := synth.GridStats(ds)
	if pairs != 23 {
		t.Fatalf("%d distinct (template, schedule) pairs at seed 1, scale 0.25; the fixture expects 23", pairs)
	}
	if grids != pairs || built != pairs {
		t.Fatalf("%d grids, %d built, for %d distinct (template, schedule) pairs", grids, built, pairs)
	}
	if limit := int64(pairs) * synth.GridBytes(ds.Cal); bytes > limit {
		t.Fatalf("built grids hold %d B, over %d pairs × one grid = %d B", bytes, pairs, limit)
	}
	t.Logf("%d antennas read %d grids, %d B", len(ds.Indoor)+len(ds.Outdoor), built, bytes)
}
