package lint

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipe"
)

// Options configures a module-wide analysis run.
type Options struct {
	// Dir is the module root (where go.mod lives).
	Dir string
	// Analyzers is the rule set to run; nil means the full Analyzers suite.
	Analyzers []*Analyzer
	// Pool runs per-package type-checking and analysis; nil uses the
	// process-shared internal/pipe pool.
	Pool *pipe.Pool
}

// AnalyzerTime is one row of the per-analyzer timing breakdown.
type AnalyzerTime struct {
	// Name is the analyzer.
	Name string
	// Total is CPU time summed across packages (parallel work overlaps, so
	// rows can sum to more than the analyze wall time).
	Total time.Duration
}

// Timing breaks a run down by phase for the icnvet -time report.
type Timing struct {
	// Load is discovery, parsing and type-checking.
	Load time.Duration
	// Analyze is the per-package analyzer phase wall time.
	Analyze time.Duration
	// Finish is the module-global finish passes plus stale-allow scan.
	Finish time.Duration
	// Packages is the number of packages in the module.
	Packages int
	// Analyzers holds the per-analyzer breakdown, in suite order.
	Analyzers []AnalyzerTime
}

// Result is the outcome of a module-wide analysis run.
type Result struct {
	// Findings are the surviving findings, sorted by position.
	Findings []Finding
	// Allows is every //lint:allow in the module with its used state — the
	// suppression-debt report behind icnvet -allows.
	Allows []AllowRecord
	// Facts is the module-wide fact store (icnvet -facts-debug).
	Facts *FactStore
	// Timing is the phase breakdown.
	Timing Timing
}

// RunModule executes analyzers over every package of the module rooted at
// opts.Dir: load and type-check, per-package analysis in parallel
// dependency waves with facts flowing downstream, then the module-global
// finish passes and stale-suppression scan.
func RunModule(opts Options) (*Result, error) {
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = Analyzers
	}

	res := &Result{Facts: NewFactStore()}
	start := time.Now()
	mod, err := LoadModule(opts.Dir, opts.Pool)
	if err != nil {
		return nil, err
	}
	res.Timing.Load = time.Since(start)
	res.Timing.Packages = len(mod.Pkgs)

	// Analyze in dependency waves: the wave barrier guarantees every fact
	// a package imports was exported by an earlier wave.
	perAnalyzer := make([]int64, len(analyzers))
	globalAllows := allowIndex{}
	var findings []Finding
	var mu sync.Mutex
	analyzeStart := time.Now()
	mod.inWaves(opts.Pool, func(pkg *Package) {
		pkgFindings, allows := analyzePackage(mod, pkg, analyzers, res.Facts, perAnalyzer)
		mu.Lock()
		findings = append(findings, pkgFindings...)
		globalAllows.merge(allows)
		mu.Unlock()
	})
	res.Timing.Analyze = time.Since(analyzeStart)

	// Module-global phase: finish passes see the full fact store and report
	// through the merged allow index; then unused suppressions become
	// findings themselves.
	finishStart := time.Now()
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for i, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		fStart := time.Now()
		a.Finish(&FinishPass{
			Analyzer:   a,
			ModulePath: mod.Path,
			facts:      res.Facts,
			allows:     globalAllows,
			findings:   &findings,
		})
		perAnalyzer[i] += int64(time.Since(fStart))
	}
	staleAllowFindings(globalAllows, ran, &findings)
	res.Timing.Finish = time.Since(finishStart)

	for i, a := range analyzers {
		res.Timing.Analyzers = append(res.Timing.Analyzers, AnalyzerTime{Name: a.Name, Total: time.Duration(perAnalyzer[i])})
	}
	for _, rec := range globalAllows.records() {
		res.Allows = append(res.Allows, *rec)
	}
	SortFindings(findings)
	res.Findings = findings
	return res, nil
}

// analyzePackage runs the analyzers over one package, accumulating
// per-analyzer nanoseconds into perAnalyzer when non-nil.
func analyzePackage(mod *Module, pkg *Package, analyzers []*Analyzer, store *FactStore, perAnalyzer []int64) ([]Finding, allowIndex) {
	var findings []Finding
	allows := indexAllows(mod.Fset, pkg.Files, &findings)
	for i, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       mod.Fset,
			Files:      pkg.Files,
			PkgPath:    pkg.PkgPath,
			ModulePath: mod.Path,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			facts:      store,
			allows:     allows,
			findings:   &findings,
		}
		start := time.Now()
		a.Run(pass)
		if perAnalyzer != nil {
			atomic.AddInt64(&perAnalyzer[i], int64(time.Since(start)))
		}
	}
	return findings, allows
}
