package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

// The benchmark-regression gate (-gate) reruns the pipeline at the
// baseline record's shape (see gateShape) and fails when any stage — or
// the total — slows down beyond a tolerance. Two levers keep it honest on
// noisy shared runners: the candidate takes the per-stage best over
// -gateruns reruns (scheduler preemption inflates single samples), and
// stages whose baseline wall is under -gatefloor milliseconds are held to
// the floor's limit instead of their own — short stages overlapping a long
// stage's tail on a loaded (or single-core) runner see contention-dominated
// walls, so a 0.2 ms stage doubling is noise, not regression.

// gateStatus classifies one table row of the gate report.
type gateStatus string

const (
	gateOK      gateStatus = "ok"
	gateRegress gateStatus = "REGRESSION"
	gateMissing gateStatus = "MISSING"
	gateNew     gateStatus = "new"
)

// gateRow is one line of the per-stage comparison table.
type gateRow struct {
	Name    string
	BaseMS  float64
	CandMS  float64
	LimitMS float64
	Status  gateStatus
}

// parseGateMax parses a -gatemax spec — comma-separated stage=ms pairs,
// e.g. "temporal=300,selection=130" — into absolute per-stage wall-time
// ceilings.
func parseGateMax(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, ms, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("gatemax: %q is not stage=ms", pair)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(ms), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("gatemax: %q has no positive millisecond value", pair)
		}
		out[strings.TrimSpace(name)] = v
	}
	return out, nil
}

// parseGateExpect parses a -gateexpect spec — comma-separated stage names
// — into the exact row schema the candidate record must carry.
func parseGateExpect(spec string) []string {
	if spec == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// validateGateRows checks a record against an expected row schema: every
// expected stage must be present exactly once, and no unknown stage may
// appear. It makes the gate's row set itself part of the contract — a leg
// that silently stops emitting forecast_p99, or starts emitting a row
// nothing ratchets, fails CI instead of drifting.
func validateGateRows(rec benchRecord, expected []string) error {
	if len(expected) == 0 {
		return nil
	}
	want := make(map[string]bool, len(expected))
	for _, name := range expected {
		want[name] = true
	}
	count := make(map[string]int, len(rec.Stages))
	for _, st := range rec.Stages {
		count[st.Name]++
		if !want[st.Name] {
			return fmt.Errorf("gate rows: unknown stage %q (expected: %s)", st.Name, strings.Join(expected, ","))
		}
	}
	for _, name := range expected {
		switch count[name] {
		case 0:
			return fmt.Errorf("gate rows: missing stage %q (expected: %s)", name, strings.Join(expected, ","))
		case 1:
		default:
			return fmt.Errorf("gate rows: stage %q appears %d times", name, count[name])
		}
	}
	return nil
}

// gateShape returns the config a measuring gate runs at: cfg with the
// baseline record's seed, scale, k and trees. explicit names the flags the
// caller set; one of those four set to a value other than the baseline's
// is an error, since it would gate a run of one shape against a baseline
// of another.
func gateShape(base benchRecord, cfg analysis.Config, explicit map[string]bool) (analysis.Config, error) {
	if base.Scale <= 0 || base.K <= 0 || base.Trees <= 0 {
		return cfg, fmt.Errorf("baseline records no pipeline shape (scale %v, k %d, trees %d)", base.Scale, base.K, base.Trees)
	}
	for _, f := range []struct{ name, flag, base string }{
		{"seed", fmt.Sprint(cfg.Seed), fmt.Sprint(base.Seed)},
		{"scale", fmt.Sprint(cfg.Scale), fmt.Sprint(base.Scale)},
		{"k", fmt.Sprint(cfg.K), fmt.Sprint(base.K)},
		{"trees", fmt.Sprint(cfg.ForestTrees), fmt.Sprint(base.Trees)},
	} {
		if explicit[f.name] && f.flag != f.base {
			return cfg, fmt.Errorf("-%s %s conflicts with the baseline's %s %s; the gate measures at the baseline's shape", f.name, f.flag, f.name, f.base)
		}
	}
	cfg.Seed, cfg.Scale, cfg.K, cfg.ForestTrees = base.Seed, base.Scale, base.K, base.Trees
	return cfg, nil
}

// runGate loads the baseline record, measures (at the baseline's shape,
// see gateShape) or loads (with comparePath) a candidate record, prints
// the per-stage table and returns an error when any baseline stage
// regressed beyond the tolerance, exceeded its absolute maxMS ceiling, or
// disappeared. A ceiling that names neither a baseline stage nor TOTAL is
// an error too: it would enforce nothing. A non-empty expect list also
// pins the candidate's exact row schema (see validateGateRows).
func runGate(cfg analysis.Config, explicit map[string]bool, baselinePath, comparePath, benchPath string, tolerance, floorMS float64, runs int, maxMS map[string]float64, expect []string) error {
	base, err := readBenchRecord(baselinePath)
	if err != nil {
		return fmt.Errorf("bench gate: baseline: %w", err)
	}
	gated := []string{"TOTAL"}
	for _, st := range base.Stages {
		gated = append(gated, st.Name)
	}
	for name := range maxMS {
		if !slices.Contains(gated, name) {
			return fmt.Errorf("bench gate: gatemax: ceiling %q names no baseline stage (gated rows: %s)", name, strings.Join(gated, ","))
		}
	}
	var cand benchRecord
	if comparePath != "" {
		if cand, err = readBenchRecord(comparePath); err != nil {
			return fmt.Errorf("bench gate: candidate: %w", err)
		}
		fmt.Fprintf(os.Stderr, "icnbench: gating %s against %s\n", comparePath, baselinePath)
	} else {
		if cfg, err = gateShape(base, cfg, explicit); err != nil {
			return fmt.Errorf("bench gate: %w", err)
		}
		if cand, err = measureBest(cfg, runs, benchPath); err != nil {
			return err
		}
	}

	if err := validateGateRows(cand, expect); err != nil {
		return fmt.Errorf("bench gate: candidate schema: %w", err)
	}

	rows, regressed := compareBench(base, cand, tolerance, floorMS, maxMS)
	fmt.Printf("bench gate: tolerance +%.0f%%, floor %.0fms (limit = max(baseline, floor) × %.2f)\n",
		tolerance*100, floorMS, 1+tolerance)
	if len(maxMS) > 0 {
		var caps []string
		for _, r := range rows {
			if m, ok := maxMS[r.Name]; ok {
				caps = append(caps, fmt.Sprintf("%s≤%.0fms", r.Name, m))
			}
		}
		fmt.Printf("bench gate: absolute ceilings: %s\n", strings.Join(caps, ", "))
	}
	fmt.Printf("%-14s %12s %12s %12s   %s\n", "stage", "baseline", "current", "limit", "status")
	for _, r := range rows {
		cur := fmt.Sprintf("%.1fms", r.CandMS)
		if r.Status == gateMissing {
			cur = "-"
		}
		fmt.Printf("%-14s %11.1fms %12s %11.1fms   %s\n", r.Name, r.BaseMS, cur, r.LimitMS, r.Status)
	}
	if regressed > 0 {
		return fmt.Errorf("bench gate: %d stage(s) regressed beyond the +%.0f%% tolerance", regressed, tolerance*100)
	}
	fmt.Println("bench gate: ok")
	return nil
}

// measureBest runs the pipeline `runs` times and keeps the per-stage (and
// total) minimum wall time — single runs on a loaded machine overstate
// stage walls, and a genuine regression slows every rerun. When benchPath
// is set, the combined record is also written there.
func measureBest(cfg analysis.Config, runs int, benchPath string) (benchRecord, error) {
	if runs < 1 {
		runs = 1
	}
	var best benchRecord
	for n := 0; n < runs; n++ {
		fmt.Fprintf(os.Stderr, "icnbench: gate run %d/%d (seed=%d scale=%.2f trees=%d)...\n",
			n+1, runs, cfg.Seed, cfg.Scale, cfg.ForestTrees)
		suite, err := experiments.NewSuite(cfg)
		if err != nil {
			return benchRecord{}, fmt.Errorf("bench gate: pipeline: %w", err)
		}
		rec := buildBenchRecord(cfg, suite)
		if n == 0 {
			best = rec
			continue
		}
		if rec.TotalMS < best.TotalMS {
			best.TotalMS = rec.TotalMS
		}
		for i := range best.Stages {
			for _, st := range rec.Stages {
				if st.Name == best.Stages[i].Name && st.WallMS < best.Stages[i].WallMS {
					best.Stages[i].WallMS = st.WallMS
					best.Stages[i].WaitedMS = st.WaitedMS
				}
			}
		}
	}
	if benchPath != "" {
		if err := writeJSON(benchPath, best); err != nil {
			return benchRecord{}, err
		}
		fmt.Fprintf(os.Stderr, "icnbench: wrote gated stage timings to %s\n", benchPath)
	}
	return best, nil
}

// compareBench builds the per-stage gate table: every baseline stage in
// baseline order, a TOTAL row, then candidate-only stages (informational).
// A stage regresses when its candidate wall exceeds
// max(baseline, floor) × (1 + tolerance); a baseline stage missing from
// the candidate also counts as a regression (a silently dropped stage must
// not pass the gate). maxMS imposes absolute per-stage ceilings on top:
// a listed stage's limit is clamped to its ceiling, so a slow creep that
// stays inside the relative tolerance still fails once it crosses the
// budgeted wall (the tentpole stages commit to temporal ≤ 300 ms and
// selection ≤ 130 ms at the baseline shape).
func compareBench(base, cand benchRecord, tolerance, floorMS float64, maxMS map[string]float64) (rows []gateRow, regressed int) {
	candWall := make(map[string]float64, len(cand.Stages))
	for _, st := range cand.Stages {
		candWall[st.Name] = st.WallMS
	}
	limit := func(name string, baseMS float64) float64 {
		b := baseMS
		if b < floorMS {
			b = floorMS
		}
		l := b * (1 + tolerance)
		if m, ok := maxMS[name]; ok && m < l {
			l = m
		}
		return l
	}
	seen := make(map[string]bool, len(base.Stages))
	for _, st := range base.Stages {
		seen[st.Name] = true
		row := gateRow{Name: st.Name, BaseMS: st.WallMS, LimitMS: limit(st.Name, st.WallMS)}
		if w, ok := candWall[st.Name]; !ok {
			row.Status = gateMissing
			regressed++
		} else {
			row.CandMS = w
			if w > row.LimitMS {
				row.Status = gateRegress
				regressed++
			} else {
				row.Status = gateOK
			}
		}
		rows = append(rows, row)
	}
	total := gateRow{Name: "TOTAL", BaseMS: base.TotalMS, CandMS: cand.TotalMS, LimitMS: limit("TOTAL", base.TotalMS)}
	if total.CandMS > total.LimitMS {
		total.Status = gateRegress
		regressed++
	} else {
		total.Status = gateOK
	}
	rows = append(rows, total)
	for _, st := range cand.Stages {
		if !seen[st.Name] {
			rows = append(rows, gateRow{Name: st.Name, CandMS: st.WallMS, LimitMS: limit(st.Name, 0), Status: gateNew})
		}
	}
	return rows, regressed
}

func readBenchRecord(path string) (benchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchRecord{}, err
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return benchRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
