// Package lint is a zero-dependency domain lint engine for this module: an
// analyzer framework on the standard library's go/ast and go/types that
// machine-checks the contracts the staged pipeline's and the closed-loop
// serving path's correctness rest on — goroutines only through
// internal/pipe, deterministic pre-split RNG, no panics in library
// packages, %w error wrapping, float comparisons / accumulation patterns
// that keep golden outputs byte-identical, immutability of published model
// snapshots, context-guarded blocking in the serving path, consistent
// atomic/mutex field access, and a closed metric catalog.
//
// The v2 engine is a cross-package dataflow framework: packages are
// analyzed in dependency order and analyzers export typed facts (escape
// summaries, field-access summaries, metric catalogs) that downstream
// packages import, with type-checking and per-package analysis
// parallelized on the shared internal/pipe pool (see runner.go, facts.go).
//
// The cmd/icnvet driver loads every package in the module and runs the
// Analyzers suite over it. Individual findings can be suppressed with an
// annotation on the offending line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an annotation without one does not suppress
// anything and is itself reported. An annotation whose analyzer never
// fires on its target line is also reported (a stale suppression), so
// escape hatches cannot outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation located in the analyzed source.
type Finding struct {
	// Analyzer is the name of the rule that fired.
	Analyzer string `json:"analyzer"`
	// Pos locates the violation (file, line, column).
	Pos token.Position `json:"pos"`
	// Message explains the violation and the expected fix.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one domain rule. Run inspects the package behind the Pass
// and reports violations through Pass.Reportf; analyzers participating in
// cross-package dataflow additionally export facts for downstream
// packages and may register a Finish hook for module-global verdicts.
type Analyzer struct {
	// Name is the rule identifier used in findings and annotations.
	Name string
	// Doc is a one-line description of the enforced contract.
	Doc string
	// Run executes the rule over one package.
	Run func(*Pass)
	// Finish, when set, runs once after every package has been analyzed,
	// over the module-wide fact store — the place for verdicts that only
	// exist globally (a metric registered nowhere, a field locked in one
	// package and read bare in another).
	Finish func(*FinishPass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Fset resolves token positions for every file in the module.
	Fset *token.FileSet
	// Files are the package's parsed sources (tests excluded).
	Files []*ast.File
	// PkgPath is the package import path (e.g. "repro/internal/mat").
	PkgPath string
	// ModulePath is the module path from go.mod (e.g. "repro").
	ModulePath string
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's expression and object tables.
	Info *types.Info

	facts    *FactStore
	allows   allowIndex
	findings *[]Finding
}

// Reportf records a finding at pos unless an annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant shortcut for the type of an expression.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// AllowRecord is one //lint:allow annotation, tracked so the engine can
// report suppression debt (icnvet -allows) and stale escape hatches.
type AllowRecord struct {
	// Pos locates the annotation comment.
	Pos token.Position `json:"pos"`
	// Analyzer is the rule the annotation suppresses.
	Analyzer string `json:"analyzer"`
	// Reason is the mandatory justification text.
	Reason string `json:"reason"`
	// Used reports whether the annotation suppressed at least one finding
	// this run; a well-formed, unused annotation is a stale suppression.
	Used bool `json:"used"`
}

// allowKey identifies an annotation target: one analyzer on one source line.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowIndex maps annotated lines to suppressions. An annotation
// suppresses findings on its own line and on the line immediately below
// it, so both end-of-line and preceding-line comments work. Suppressing a
// finding marks the record used.
type allowIndex map[allowKey]*AllowRecord

func (ai allowIndex) allowed(analyzer string, pos token.Position) bool {
	if ai == nil {
		return false
	}
	for _, line := range [...]int{pos.Line, pos.Line - 1} {
		if rec := ai[allowKey{pos.Filename, line, analyzer}]; rec != nil {
			rec.Used = true
			return true
		}
	}
	return false
}

// merge folds other's entries into ai (used to build the module-wide
// index the Finish passes report through).
func (ai allowIndex) merge(other allowIndex) {
	for k, rec := range other {
		ai[k] = rec
	}
}

// records returns the index's annotations sorted by position.
func (ai allowIndex) records() []*AllowRecord {
	out := make([]*AllowRecord, 0, len(ai))
	for _, rec := range ai {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// allowDirective is the comment prefix of the suppression mechanism.
const allowDirective = "//lint:allow"

// indexAllows scans the files' comments for //lint:allow directives.
// Malformed directives (missing analyzer or missing reason) are reported
// as findings of the pseudo-analyzer "lint" so they cannot silently rot.
func indexAllows(fset *token.FileSet, files []*ast.File, findings *[]Finding) allowIndex {
	idx := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					*findings = append(*findings, Finding{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed annotation: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				idx[allowKey{pos.Filename, pos.Line, fields[0]}] = &AllowRecord{
					Pos:      pos,
					Analyzer: fields[0],
					Reason:   strings.Join(fields[1:], " "),
				}
			}
		}
	}
	return idx
}

// staleAllowFindings reports every well-formed annotation that suppressed
// nothing, provided its analyzer was part of the run (an allow for a
// deselected analyzer is not judged) — plus annotations naming analyzers
// that do not exist at all, which are typos that would otherwise suppress
// nothing forever. The stale finding itself respects the allow index, so
// a deliberate tombstone can be annotated with //lint:allow lint <reason>.
func staleAllowFindings(allows allowIndex, ran map[string]bool, findings *[]Finding) {
	for _, rec := range allows.records() {
		if rec.Used {
			continue
		}
		known := ran[rec.Analyzer] || rec.Analyzer == "lint"
		if !known {
			if _, exists := analyzerNames[rec.Analyzer]; exists {
				continue // analyzer deselected this run; not judged
			}
			if allows.allowed("lint", rec.Pos) {
				continue
			}
			*findings = append(*findings, Finding{
				Analyzer: "lint",
				Pos:      rec.Pos,
				Message:  fmt.Sprintf("annotation names unknown analyzer %q; it suppresses nothing", rec.Analyzer),
			})
			continue
		}
		if allows.allowed("lint", rec.Pos) {
			continue
		}
		*findings = append(*findings, Finding{
			Analyzer: "lint",
			Pos:      rec.Pos,
			Message:  fmt.Sprintf("stale suppression: %s does not fire here; remove the //lint:allow", rec.Analyzer),
		})
	}
}

// Analyzers is the full v2 suite icnvet runs by default.
var Analyzers = []*Analyzer{
	PoolOnlyGoroutines,
	RNGDiscipline,
	PanicFreeLibrary,
	ErrWrap,
	FloatDeterminism,
	SnapshotFreeze,
	CtxGuard,
	LockAtomic,
	MetricRegistry,
}

// analyzerNames indexes the registered suite for unknown-name detection.
var analyzerNames = func() map[string]*Analyzer {
	m := map[string]*Analyzer{}
	for _, a := range Analyzers {
		m[a.Name] = a
	}
	return m
}()

// ByName returns the analyzers matching the comma-separated names list.
// Unknown and duplicate entries are errors: an analyzer listed twice
// would run twice and double-report every one of its findings.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("lint: analyzer %q listed twice; it would double-report its findings", name)
		}
		seen[name] = true
		a, ok := analyzerNames[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage executes the given analyzers over one loaded package,
// exporting facts into and importing dependency facts from store (nil
// runs without cross-package dataflow), and returns the surviving
// (non-suppressed) findings plus the package's allow index for the
// caller's stale-suppression accounting.
func RunPackage(mod *Module, pkg *Package, analyzers []*Analyzer, store *FactStore) ([]Finding, allowIndex) {
	return analyzePackage(mod, pkg, analyzers, store, nil)
}

// Run loads the module rooted at dir and executes the analyzers over
// every package, including Finish passes and stale-suppression findings.
// Findings come back sorted by file, line, column and analyzer so output
// is stable across runs.
func Run(dir string, analyzers []*Analyzer) ([]Finding, error) {
	res, err := RunModule(Options{Dir: dir, Analyzers: analyzers})
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// SortFindings orders findings by position then analyzer name.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
