// Command icnbench regenerates every table and figure of the paper's
// evaluation (Table 1, Figures 1-11) plus the ablation studies, printing
// each artifact with its paper-shape checks and writing text files when an
// output directory is given.
//
// Usage:
//
//	icnbench [-seed N] [-scale F] [-k N] [-trees N] [-out DIR] [-quiet]
//	         [-benchjson FILE]
//	icnbench -gate BASELINE [-gatecompare FILE] [-gatetolerance F]
//	         [-gatefloor MS] [-gateruns N] [-gatemax SPEC] [-gateexpect ROWS]
//	icnbench -serve [-servejson FILE]
//	icnbench -chaos [-chaosschedules N] [-chaosjson FILE]
//
// With -gate the command reruns the pipeline at the baseline record's
// shape — its seed, scale, k and trees — and fails on per-stage wall-time
// regressions. A shape flag set explicitly to another value is an error:
// to gate a new shape, first write a baseline at it with -benchjson. With
// -gatecompare it compares two existing records instead and ignores the
// shape.
//
// With -serve the command instead benchmarks the online path: it stands up
// an in-process icnserve instance around a freshly trained snapshot,
// sustains a concurrent classify load over HTTP, drains the server
// gracefully, and writes throughput plus p50/p99 latency to -servejson
// (default BENCH_serve.json). It also times the forecast-set training and
// sustains a /v1/forecast load with a model swap landing mid-run, auditing
// every sampled response bit-for-bit against an offline refit of the
// echoed revision's series; the forecast_train, forecast_p50 and
// forecast_p99 rows gate alongside the classify rows.
//
// With -chaos the command runs the seeded fault-injection soak against
// live servers: -chaosschedules fault schedules (default 3), then two
// storms that always run — a swap storm of 50 refresh-published model
// swaps and a shard storm that kills a shard and a replica of a 3-shard
// tier mid-soak — each with its invariants held.
//
// At -scale 1 the run uses the paper's full population (4,762 indoor and
// 22,000 outdoor antennas); this takes a few minutes and ~1 GiB of memory.
// The default scale 0.25 reproduces every shape in seconds. -benchjson
// writes a machine-readable record of the run (per-stage wall/wait times,
// allocation estimates, pool counters) for tracking the performance
// trajectory across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed (identical seeds reproduce identical runs)")
	scale := flag.Float64("scale", 0.25, "fraction of the paper's antenna population (1 = full scale)")
	k := flag.Int("k", 9, "number of flat clusters")
	trees := flag.Int("trees", 100, "surrogate random-forest size")
	outDir := flag.String("out", "", "directory to write per-artifact text files (optional)")
	mdPath := flag.String("md", "", "write a consolidated markdown report to this path (optional)")
	benchPath := flag.String("benchjson", "", "write a machine-readable stage-timing record to this path (optional)")
	quiet := flag.Bool("quiet", false, "print only the check summary")
	serveBench := flag.Bool("serve", false, "benchmark the online serving path instead of regenerating artifacts")
	serveJSON := flag.String("servejson", "BENCH_serve.json", "serving benchmark output path (with -serve)")
	chaos := flag.Bool("chaos", false, "run the seeded fault-injection soak against a live server instead of regenerating artifacts")
	chaosSchedules := flag.Int("chaosschedules", 3, "number of seeded fault schedules (with -chaos)")
	chaosJSON := flag.String("chaosjson", "", "chaos soak record output path (with -chaos, optional)")
	gatePath := flag.String("gate", "", "baseline stage-timing JSON: rerun the pipeline and fail on per-stage wall-time regressions")
	gateCompare := flag.String("gatecompare", "", "candidate stage-timing JSON to compare instead of rerunning (with -gate)")
	gateTolerance := flag.Float64("gatetolerance", 0.25, "fractional slowdown allowed per stage before the gate fails (with -gate)")
	gateFloor := flag.Float64("gatefloor", 120, "baseline milliseconds floor — stages faster than this are held to the floor's limit, absorbing scheduler noise (with -gate)")
	gateRuns := flag.Int("gateruns", 2, "pipeline reruns; the per-stage best wall time is gated (with -gate)")
	gateMax := flag.String("gatemax", "", "absolute per-stage wall-time ceilings as stage=ms pairs, e.g. temporal=300,selection=130 — a listed stage fails above its ceiling even inside the relative tolerance (with -gate)")
	gateExpect := flag.String("gateexpect", "", "comma-separated gate-row schema — the candidate must carry exactly these stage rows, each once; unknown or missing rows fail the gate (with -gate)")
	flag.Parse()

	cfg := analysis.Config{
		Seed:        *seed,
		Scale:       *scale,
		K:           *k,
		ForestTrees: *trees,
	}
	if *chaos {
		if err := runChaos(cfg, *chaosSchedules, *chaosJSON); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gatePath != "" {
		maxMS, err := parseGateMax(*gateMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if err := runGate(cfg, explicit, *gatePath, *gateCompare, *benchPath, *gateTolerance, *gateFloor, *gateRuns, maxMS, parseGateExpect(*gateExpect)); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveBench {
		if err := runServeBench(cfg, *serveJSON); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "icnbench: running pipeline (seed=%d scale=%.2f k=%d trees=%d)...\n",
		cfg.Seed, cfg.Scale, cfg.K, cfg.ForestTrees)
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "icnbench: pipeline done — %d indoor antennas, %d outdoor, purity %.3f, ARI %.3f, surrogate acc %.3f\n",
		len(suite.Res.Dataset.Indoor), len(suite.Res.Dataset.Outdoor),
		suite.Res.Purity(), suite.Res.AdjustedRandIndex(), suite.Res.SurrogateAccuracy)
	fmt.Fprintln(os.Stderr, suite.Res.Trace())

	if *benchPath != "" {
		if err := writeJSON(*benchPath, buildBenchRecord(cfg, suite)); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "icnbench: wrote stage timings to %s\n", *benchPath)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
	}

	artifacts := suite.All()
	failed := 0
	for _, a := range artifacts {
		if !*quiet {
			fmt.Printf("==== %s: %s ====\n", a.ID, a.Title)
			fmt.Println(a.Text)
		}
		for _, c := range a.Checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Printf("  [%s] %s/%s: %s\n", status, a.ID, c.Name, c.Detail)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, strings.ToLower(a.ID)+".txt")
			content := fmt.Sprintf("%s: %s\n\n%s", a.ID, a.Title, a.Text)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, cfg, suite, artifacts); err != nil {
			fmt.Fprintf(os.Stderr, "icnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "icnbench: wrote markdown report to %s\n", *mdPath)
	}

	fmt.Printf("\nicnbench: %d artifacts, %d failed checks\n", len(artifacts), failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// benchRecord is the schema of the -benchjson output: one self-contained
// snapshot of a pipeline run's configuration and per-stage costs.
type benchRecord struct {
	Seed     uint64           `json:"seed"`
	Scale    float64          `json:"scale"`
	K        int              `json:"k"`
	Trees    int              `json:"trees"`
	Indoor   int              `json:"indoor_antennas"`
	Outdoor  int              `json:"outdoor_antennas"`
	TotalMS  float64          `json:"total_ms"`
	Stages   []stageJSON      `json:"stages"`
	Counters map[string]int64 `json:"counters"`
}

type stageJSON struct {
	Name       string   `json:"name"`
	Deps       []string `json:"deps,omitempty"`
	WallMS     float64  `json:"wall_ms"`
	WaitedMS   float64  `json:"waited_ms"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Goroutines int      `json:"goroutines"`
}

func buildBenchRecord(cfg analysis.Config, suite *experiments.Suite) benchRecord {
	tr := suite.Res.Trace()
	rec := benchRecord{
		Seed:     cfg.Seed,
		Scale:    cfg.Scale,
		K:        cfg.K,
		Trees:    cfg.ForestTrees,
		Indoor:   len(suite.Res.Dataset.Indoor),
		Outdoor:  len(suite.Res.Dataset.Outdoor),
		TotalMS:  float64(tr.Total().Microseconds()) / 1000,
		Counters: obs.Counters(),
	}
	for _, st := range tr.Stages() {
		rec.Stages = append(rec.Stages, stageJSON{
			Name:       st.Name,
			Deps:       st.Deps,
			WallMS:     float64(st.Wall.Microseconds()) / 1000,
			WaitedMS:   float64(st.Waited.Microseconds()) / 1000,
			AllocBytes: st.AllocBytes,
			Goroutines: st.Goroutines,
		})
	}
	return rec
}

// writeJSON writes v to path as indented JSON: every record the command
// writes (-benchjson, -servejson, -chaosjson) goes through it.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeMarkdown renders every artifact into a single markdown document
// with a check-summary table up front.
func writeMarkdown(path string, cfg analysis.Config, suite *experiments.Suite, artifacts []experiments.Artifact) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# ICN reproduction report\n\n")
	fmt.Fprintf(&b, "seed %d, scale %.2f, k %d, %d surrogate trees — %d indoor antennas, %d outdoor.\n\n",
		cfg.Seed, cfg.Scale, cfg.K, cfg.ForestTrees,
		len(suite.Res.Dataset.Indoor), len(suite.Res.Dataset.Outdoor))
	fmt.Fprintf(&b, "Validation vs hidden ground truth: purity %.3f, ARI %.3f, surrogate accuracy %.3f.\n\n",
		suite.Res.Purity(), suite.Res.AdjustedRandIndex(), suite.Res.SurrogateAccuracy)

	b.WriteString("## Check summary\n\n| artifact | check | status | detail |\n|---|---|---|---|\n")
	for _, a := range artifacts {
		for _, c := range a.Checks {
			status := "PASS"
			if !c.Pass {
				status = "**FAIL**"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", a.ID, c.Name, status, c.Detail)
		}
	}
	b.WriteString("\n")
	for _, a := range artifacts {
		fmt.Fprintf(&b, "## %s: %s\n\n```\n%s```\n\n", a.ID, a.Title, a.Text)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
