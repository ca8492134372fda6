// Command icnvet is the module's domain linter: it loads every package and
// enforces the pipeline's determinism, concurrency and error-handling
// contracts with the internal/lint analyzer suite — including the
// cross-package dataflow analyzers (snapfreeze, ctxguard, lockatomic,
// metricreg) that consume facts exported in dependency order.
//
// Usage:
//
//	icnvet [-C dir] [-json] [-analyzers poolgo,errwrap] [-list]
//	       [-time] [-allows] [-facts-debug]
//
// -allows prints the suppression-debt report (every //lint:allow with its
// reason and whether it fired); -facts-debug dumps the cross-package fact
// store; -time breaks the run down by phase and analyzer.
//
// Exit status: 0 when the module is clean, 1 when findings were reported,
// 2 when the module could not be loaded. Individual findings are
// suppressed in source with "//lint:allow <analyzer> <reason>".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module root to analyze (directory containing go.mod)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	timing := flag.Bool("time", false, "print the per-phase and per-analyzer timing breakdown")
	allows := flag.Bool("allows", false, "print the suppression-debt report instead of findings")
	factsDebug := flag.Bool("facts-debug", false, "dump the cross-package fact store")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers
	if *names != "" {
		var err error
		analyzers, err = lint.ByName(*names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icnvet: %v\n", err)
			os.Exit(2)
		}
	}

	res, err := lint.RunModule(lint.Options{Dir: *dir, Analyzers: analyzers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "icnvet: %v\n", err)
		os.Exit(2)
	}
	findings := res.Findings

	if *factsDebug {
		fmt.Print(res.Facts.DebugString())
	}
	if *timing {
		printTiming(res.Timing)
	}
	if *allows {
		printAllows(res, *jsonOut)
		return
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "icnvet: encode: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "icnvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// printTiming renders the phase breakdown, one row per phase (load covers
// parsing and type-checking, the bulk of a run) and one per analyzer.
func printTiming(t lint.Timing) {
	w := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "phase\tload\t%v\t(%d packages)\n", t.Load.Round(timeUnit(t.Load)), t.Packages)
	fmt.Fprintf(w, "phase\tanalyze\t%v\n", t.Analyze.Round(timeUnit(t.Analyze)))
	fmt.Fprintf(w, "phase\tfinish\t%v\n", t.Finish.Round(timeUnit(t.Finish)))
	for _, a := range t.Analyzers {
		fmt.Fprintf(w, "analyzer\t%s\t%v\n", a.Name, a.Total.Round(timeUnit(a.Total)))
	}
	w.Flush()
}

// timeUnit picks a readable rounding granularity.
func timeUnit(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return 10 * time.Millisecond
	case d >= time.Millisecond:
		return 100 * time.Microsecond
	default:
		return time.Microsecond
	}
}

// printAllows renders the suppression-debt report: every //lint:allow in
// the module with its target analyzer, justification, and whether it
// actually suppressed a finding this run.
func printAllows(res *lint.Result, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		allows := res.Allows
		if allows == nil {
			allows = []lint.AllowRecord{}
		}
		if err := enc.Encode(allows); err != nil {
			fmt.Fprintf(os.Stderr, "icnvet: encode: %v\n", err)
			os.Exit(2)
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	used := 0
	for _, a := range res.Allows {
		state := "STALE"
		if a.Used {
			state = "used"
			used++
		}
		fmt.Fprintf(w, "%s:%d\t%s\t%s\t%s\n", a.Pos.Filename, a.Pos.Line, a.Analyzer, state, a.Reason)
	}
	w.Flush()
	fmt.Fprintf(os.Stderr, "icnvet: %d suppression(s), %d in use\n", len(res.Allows), used)
}
