package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
)

func gateFixture() (benchRecord, benchRecord) {
	base := benchRecord{
		TotalMS: 700,
		Stages: []stageJSON{
			{Name: "rsca", WallMS: 1.4},
			{Name: "forest", WallMS: 500},
			{Name: "outdoor", WallMS: 60},
		},
	}
	cand := benchRecord{
		TotalMS: 690,
		Stages: []stageJSON{
			{Name: "rsca", WallMS: 2.1},
			{Name: "forest", WallMS: 480},
			{Name: "outdoor", WallMS: 58},
		},
	}
	return base, cand
}

func findRow(t *testing.T, rows []gateRow, name string) gateRow {
	t.Helper()
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no gate row %q", name)
	return gateRow{}
}

func TestCompareBenchAllWithinTolerance(t *testing.T) {
	base, cand := gateFixture()
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0: %+v", regressed, rows)
	}
	// 4 rows: three stages + TOTAL.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if r := findRow(t, rows, "TOTAL"); r.Status != gateOK {
		t.Fatalf("TOTAL status %s", r.Status)
	}
}

func TestCompareBenchDetectsInflatedStage(t *testing.T) {
	base, cand := gateFixture()
	// Inflate one stage beyond max(base, floor)*(1+tol) = 500*1.25 = 625.
	for i := range cand.Stages {
		if cand.Stages[i].Name == "forest" {
			cand.Stages[i].WallMS = 700
		}
	}
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1", regressed)
	}
	r := findRow(t, rows, "forest")
	if r.Status != gateRegress {
		t.Fatalf("forest status %s, want %s", r.Status, gateRegress)
	}
	if r.LimitMS != 625 {
		t.Fatalf("forest limit %.1f, want 625", r.LimitMS)
	}
}

func TestCompareBenchFloorAbsorbsTinyStageNoise(t *testing.T) {
	base, cand := gateFixture()
	// rsca triples from 1.4ms to 4.2ms — far beyond +25% but far below the
	// 25ms floor's limit of 31.25ms, so the gate must not fire.
	for i := range cand.Stages {
		if cand.Stages[i].Name == "rsca" {
			cand.Stages[i].WallMS = 4.2
		}
	}
	_, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0 (floor must absorb sub-floor noise)", regressed)
	}
}

func TestCompareBenchMissingStageFails(t *testing.T) {
	base, cand := gateFixture()
	cand.Stages = cand.Stages[:2] // drop outdoor
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1", regressed)
	}
	if r := findRow(t, rows, "outdoor"); r.Status != gateMissing {
		t.Fatalf("outdoor status %s, want %s", r.Status, gateMissing)
	}
}

func TestCompareBenchNewStageInformational(t *testing.T) {
	base, cand := gateFixture()
	cand.Stages = append(cand.Stages, stageJSON{Name: "embedding", WallMS: 90})
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0 (new stages are informational)", regressed)
	}
	if r := findRow(t, rows, "embedding"); r.Status != gateNew {
		t.Fatalf("embedding status %s, want %s", r.Status, gateNew)
	}
}

func TestCompareBenchTotalRegression(t *testing.T) {
	base, cand := gateFixture()
	cand.TotalMS = 1000 // beyond 700*1.25 = 875
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1", regressed)
	}
	if r := findRow(t, rows, "TOTAL"); r.Status != gateRegress {
		t.Fatalf("TOTAL status %s, want %s", r.Status, gateRegress)
	}
}

func TestCompareBenchAbsoluteCeiling(t *testing.T) {
	base, cand := gateFixture()
	// forest at 480ms is inside the relative limit (500×1.25 = 625) but
	// above a 450ms absolute ceiling.
	rows, regressed := compareBench(base, cand, 0.25, 25, map[string]float64{"forest": 450})
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1: %+v", regressed, rows)
	}
	r := findRow(t, rows, "forest")
	if r.Status != gateRegress || r.LimitMS != 450 {
		t.Fatalf("forest row %+v, want REGRESSION with limit 450", r)
	}
}

func TestCompareBenchCeilingAboveLimitIsInert(t *testing.T) {
	base, cand := gateFixture()
	// A ceiling looser than the relative limit changes nothing.
	rows, regressed := compareBench(base, cand, 0.25, 25, map[string]float64{"forest": 10000, "outdoor": 80})
	if regressed != 0 {
		t.Fatalf("regressed = %d, want 0: %+v", regressed, rows)
	}
	if r := findRow(t, rows, "forest"); r.LimitMS != 625 {
		t.Fatalf("forest limit %v, want relative 625", r.LimitMS)
	}
	// outdoor's relative limit max(60, 25)×1.25 = 75 is already tighter
	// than the 80ms ceiling, so the relative limit stands.
	if r := findRow(t, rows, "outdoor"); r.LimitMS != 75 {
		t.Fatalf("outdoor limit %v, want relative 75", r.LimitMS)
	}
}

// writeRecord writes rec as JSON to dir/name and returns the path.
func writeRecord(t *testing.T, dir, name string, rec benchRecord) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGateRejectsUnknownCeiling: a -gatemax ceiling must name a
// baseline stage or TOTAL. compareBench looks ceilings up by row name, so
// a misspelt stage ("forests") would otherwise enforce nothing.
func TestRunGateRejectsUnknownCeiling(t *testing.T) {
	base, cand := gateFixture()
	dir := t.TempDir()
	basePath, candPath := writeRecord(t, dir, "base.json", base), writeRecord(t, dir, "cand.json", cand)
	gate := func(maxMS map[string]float64) error {
		return runGate(analysis.Config{}, nil, basePath, candPath, "", 0.25, 25, 1, maxMS, nil)
	}
	if err := gate(map[string]float64{"forest": 10000, "TOTAL": 10000}); err != nil {
		t.Fatalf("ceilings on a baseline stage and TOTAL: %v", err)
	}
	err := gate(map[string]float64{"forest": 10000, "forests": 150})
	if err == nil || !strings.Contains(err.Error(), `"forests"`) {
		t.Fatalf("ceiling on an unknown stage: err = %v, want one naming \"forests\"", err)
	}
}

// serveGateFixture mirrors the BENCH_serve.json row set the serve leg
// emits with the forecast leg on.
func serveGateFixture() benchRecord {
	return benchRecord{
		TotalMS: 900,
		Stages: []stageJSON{
			{Name: "classify_p50", WallMS: 15},
			{Name: "classify_p99", WallMS: 32},
			{Name: "refresh_warm", WallMS: 40},
			{Name: "forecast_train", WallMS: 18},
			{Name: "forecast_p50", WallMS: 0.8},
			{Name: "forecast_p99", WallMS: 30},
		},
	}
}

var serveExpectRows = []string{
	"classify_p50", "classify_p99", "refresh_warm",
	"forecast_train", "forecast_p50", "forecast_p99",
}

func TestValidateGateRowsAcceptsExactSchema(t *testing.T) {
	if err := validateGateRows(serveGateFixture(), serveExpectRows); err != nil {
		t.Fatal(err)
	}
	// An empty schema disables validation entirely.
	if err := validateGateRows(benchRecord{Stages: []stageJSON{{Name: "whatever"}}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateGateRowsRejectsMissingForecastRow(t *testing.T) {
	rec := serveGateFixture()
	kept := rec.Stages[:0]
	for _, st := range rec.Stages {
		if st.Name != "forecast_p99" {
			kept = append(kept, st)
		}
	}
	rec.Stages = kept
	err := validateGateRows(rec, serveExpectRows)
	if err == nil || !strings.Contains(err.Error(), "forecast_p99") {
		t.Fatalf("dropped forecast_p99 not rejected: %v", err)
	}
}

func TestValidateGateRowsRejectsUnknownRow(t *testing.T) {
	rec := serveGateFixture()
	rec.Stages = append(rec.Stages, stageJSON{Name: "forecast_p75", WallMS: 5})
	err := validateGateRows(rec, serveExpectRows)
	if err == nil || !strings.Contains(err.Error(), "forecast_p75") {
		t.Fatalf("unknown row not rejected: %v", err)
	}
}

func TestValidateGateRowsRejectsDuplicateRow(t *testing.T) {
	rec := serveGateFixture()
	rec.Stages = append(rec.Stages, stageJSON{Name: "forecast_train", WallMS: 19})
	err := validateGateRows(rec, serveExpectRows)
	if err == nil || !strings.Contains(err.Error(), "forecast_train") {
		t.Fatalf("duplicate row not rejected: %v", err)
	}
}

func TestForecastRowsGateLikeStages(t *testing.T) {
	base := serveGateFixture()
	cand := serveGateFixture()
	// forecast_train regressing beyond max(base, floor)×(1+tol) =
	// 25×1.25 = 31.25ms fails the gate like any pipeline stage.
	for i := range cand.Stages {
		if cand.Stages[i].Name == "forecast_train" {
			cand.Stages[i].WallMS = 40
		}
	}
	rows, regressed := compareBench(base, cand, 0.25, 25, nil)
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1: %+v", regressed, rows)
	}
	if r := findRow(t, rows, "forecast_train"); r.Status != gateRegress {
		t.Fatalf("forecast_train status %s, want %s", r.Status, gateRegress)
	}
	// Sub-floor forecast p50 noise is absorbed like any tiny stage.
	cand = serveGateFixture()
	for i := range cand.Stages {
		if cand.Stages[i].Name == "forecast_p50" {
			cand.Stages[i].WallMS = 3
		}
	}
	if _, regressed := compareBench(base, cand, 0.25, 25, nil); regressed != 0 {
		t.Fatalf("sub-floor forecast_p50 noise fired the gate")
	}
}

func TestParseGateExpect(t *testing.T) {
	got := parseGateExpect(" classify_p50, forecast_p99 ,")
	if len(got) != 2 || got[0] != "classify_p50" || got[1] != "forecast_p99" {
		t.Fatalf("parsed %v", got)
	}
	if got := parseGateExpect(""); got != nil {
		t.Fatalf("empty spec parsed to %v", got)
	}
}

func TestParseGateMax(t *testing.T) {
	got, err := parseGateMax("temporal=300, selection=130")
	if err != nil {
		t.Fatal(err)
	}
	if got["temporal"] != 300 || got["selection"] != 130 || len(got) != 2 {
		t.Fatalf("parsed %v", got)
	}
	if got, err := parseGateMax(""); err != nil || got != nil {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"temporal", "temporal=", "temporal=-5", "temporal=abc"} {
		if _, err := parseGateMax(bad); err == nil {
			t.Fatalf("spec %q did not error", bad)
		}
	}
}

// TestGateShape: a measuring gate runs at the baseline record's seed,
// scale, k and trees. Only a shape flag set explicitly to another value
// is an error, and the error names both values.
func TestGateShape(t *testing.T) {
	base := benchRecord{Seed: 1, Scale: 0.25, K: 9, Trees: 100}
	want := analysis.Config{Seed: 1, Scale: 0.25, K: 9, ForestTrees: 100}
	for _, tc := range []struct {
		name     string
		base     benchRecord
		cfg      analysis.Config
		explicit []string
		wantErr  []string // substrings of the error; nil means success
	}{
		{name: "defaults", base: base, cfg: want},
		{name: "unset flags defer to the baseline", base: base,
			cfg: analysis.Config{Seed: 3, Scale: 0.1, K: 4, ForestTrees: 25}},
		{name: "explicit flags equal to the baseline", base: base, cfg: want,
			explicit: []string{"seed", "scale", "k", "trees"}},
		{name: "other explicit flags", base: base,
			cfg: analysis.Config{Scale: 0.1}, explicit: []string{"quiet", "gateruns"}},
		{name: "seed conflict", base: base,
			cfg: analysis.Config{Seed: 2, Scale: 0.25, K: 9, ForestTrees: 100}, explicit: []string{"seed"},
			wantErr: []string{"-seed 2", "seed 1"}},
		{name: "scale conflict", base: base,
			cfg: analysis.Config{Seed: 1, Scale: 0.1, K: 9, ForestTrees: 100}, explicit: []string{"scale"},
			wantErr: []string{"-scale 0.1", "scale 0.25"}},
		{name: "k conflict", base: base,
			cfg: analysis.Config{Seed: 1, Scale: 0.25, K: 7, ForestTrees: 100}, explicit: []string{"k"},
			wantErr: []string{"-k 7", "k 9"}},
		{name: "trees conflict", base: base,
			cfg: analysis.Config{Seed: 1, Scale: 0.25, K: 9, ForestTrees: 25}, explicit: []string{"trees"},
			wantErr: []string{"-trees 25", "trees 100"}},
		{name: "baseline without a pipeline shape", base: benchRecord{Seed: 1, Scale: 0.1, Trees: 25},
			cfg: want, wantErr: []string{"no pipeline shape"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explicit := map[string]bool{}
			for _, name := range tc.explicit {
				explicit[name] = true
			}
			got, err := gateShape(tc.base, tc.cfg, explicit)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("config %+v, want %+v", got, want)
				}
				return
			}
			if err == nil {
				t.Fatalf("config %+v accepted, want an error", got)
			}
			for _, sub := range tc.wantErr {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not name %q", err, sub)
				}
			}
		})
	}
}

// TestRunGateShapeRule: runGate rejects a conflicting explicit -scale
// before it runs the pipeline, and a -gatecompare run, which measures
// nothing, ignores the shape flags.
func TestRunGateShapeRule(t *testing.T) {
	base, cand := gateFixture()
	base.Seed, base.Scale, base.K, base.Trees = 1, 0.25, 9, 100
	dir := t.TempDir()
	basePath, candPath := writeRecord(t, dir, "base.json", base), writeRecord(t, dir, "cand.json", cand)
	cfg := analysis.Config{Seed: 1, Scale: 0.1, K: 9, ForestTrees: 100}
	explicit := map[string]bool{"scale": true}

	before := obs.Counters()["pipe.stages"]
	err := runGate(cfg, explicit, basePath, "", "", 0.25, 25, 1, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-scale 0.1") || !strings.Contains(err.Error(), "scale 0.25") {
		t.Fatalf("conflicting -scale: err = %v, want one naming 0.1 and 0.25", err)
	}
	if after := obs.Counters()["pipe.stages"]; after != before {
		t.Fatalf("the pipeline ran %d stage(s) before the shape was rejected", after-before)
	}
	if err := runGate(cfg, explicit, basePath, candPath, "", 0.25, 25, 1, nil, nil); err != nil {
		t.Fatalf("-gatecompare with a conflicting -scale: %v", err)
	}
}
