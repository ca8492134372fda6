// Command perfbench is the repository benchmark: for one workload it trains
// the snapshot, stands up the sharded serving tier in-process (4 shards, 2
// replicas), drives an open-loop load over loopback HTTP through the
// router, audits every answer, and prints every metric by name with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 it
// runs the traced pass instead and reports per-layer metrics.
//
//	perfbench --workload query_mix --seed 7 --seconds 30 --trace 0
//
// See README.md for the workloads, the metric map and the bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// sh is always paperShape on the command line; tests shrink it.
	sh shape
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sh: paperShape}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the schedules, request contents and ingest batches derive from it")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := specFor(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	return runOptions(o, stdout, stderr)
}

// runOptions runs one parsed invocation and returns the exit code.
func runOptions(o options, stdout, stderr io.Writer) int {
	// The hard stop sits well inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	out, err := execute(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// jsonMetric and jsonResult are the last-line schema.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// execute sets up, runs and tears down one workload and returns the result
// line. Human-readable rows go to stdout ahead of it; progress to stderr.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) (jsonResult, error) {
	sp, _ := specFor(o.workload)
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v scale=%g trees=%d shards=%d replicas=%d\n",
		sp.name, o.seed, o.seconds, o.trace, o.sh.scale, o.sh.trees, o.sh.shards, o.sh.reps)
	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	t, setupSecs, cold, err := setUp(ctx, o.sh)
	if err != nil {
		return jsonResult{}, fmt.Errorf("set-up: %w", err)
	}
	tornDown := false
	defer func() {
		if !tornDown {
			_ = t.shutdown() // error path: the run has already failed
		}
	}()
	runtime.GC()

	src := rng.New(o.seed ^ 0x9e3779b97f4a7c15)
	b := &bench{sp: sp, t: t, src: src, conns: nproc, log: stderr}
	ph := phasesFor(o.seconds)

	var res *result
	var layers *report
	if o.trace {
		layers, err = b.traced(ctx, ph, cold)
		res = &result{}
	} else {
		res, err = b.run(ctx, ph)
	}
	if err != nil {
		b.printFailures(stderr)
		return jsonResult{}, err
	}

	// Drain: every acked batch must be folded once the router stops.
	tornDown = true
	if err := t.shutdown(); err != nil {
		return jsonResult{}, err
	}
	st := t.rt.Stats()
	acked := b.fresh.ackedRecords()
	b.check(st.AckedRecords == acked && int64(st.FoldedRecords) == acked,
		"durability: client saw %d records acked, router acked %d, folded %d",
		acked, st.AckedRecords, st.FoldedRecords)

	r := &res.rep
	setupMed := quantile(setupSecs, 0.5)
	r.set("setup_s", setupMed, "s", len(setupSecs))
	b.mu.Lock()
	attempted, failed := b.attempted, b.failed
	b.mu.Unlock()
	if attempted == 0 {
		return jsonResult{}, errors.New("no operation was attempted")
	}
	r.set("error_ratio", float64(failed)/float64(attempted), "ratio", attempted)

	fmt.Fprintf(stdout, "%-30s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	rows := r.rows
	if layers != nil {
		rows = append(rows, layers.rows...)
	}
	for _, m := range rows {
		fmt.Fprintf(stdout, "%-30s %14.4f %-6s %8d\n", m.Name, m.Value, m.Unit, m.N)
	}
	b.printFailures(stdout)

	out := jsonResult{
		Correct:   failed == 0 && b.audit.count() == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]jsonMetric{},
	}
	if layers != nil {
		for _, m := range layers.rows {
			out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
		return out, checkFinite(out.Metrics)
	}
	h := res.headline
	out.Metrics["setup_s"] = jsonMetric{Value: setupMed, Unit: "s"}
	out.Metrics["heap_peak_mb"] = jsonMetric{Value: h.heapMB, Unit: "MB"}
	out.Metrics["p50_calm_ms"] = jsonMetric{Value: h.calmMS, Unit: "ms"}
	out.Metrics["cpu_ms_per_op"] = jsonMetric{Value: h.cpuMSPerOp, Unit: "ms/op"}
	return out, checkFinite(out.Metrics)
}

// printFailures lists the first audit failures and failed operations.
func (b *bench) printFailures(w io.Writer) {
	for _, a := range b.audit.first {
		fmt.Fprintf(w, "audit FAILED: %s\n", a)
	}
	for _, e := range b.errs.first {
		fmt.Fprintf(w, "operation FAILED: %s\n", e)
	}
}

// checkFinite rejects a result whose metrics are not finite numbers.
func checkFinite(ms map[string]jsonMetric) error {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := ms[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
	}
	return nil
}

// coldStages lists the setup pipeline stages reported per layer.
var coldStages = []string{"rsca", "distances", "linkage", "selection", "temporal", "forecast", "forest", "outdoor"}

// stageMS returns the median wall time of a named stage over traces.
func stageMS(traces [][]obs.StageTrace, name string) (timing, bool) {
	var t timing
	for _, tr := range traces {
		for _, st := range tr {
			if st.Name == name {
				t.add(float64(st.Wall) / float64(time.Millisecond))
			}
		}
	}
	return t, t.n() > 0
}
