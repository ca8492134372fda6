package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The whole real module is loaded once and shared: srcimporter makes the
// load the expensive part (~2s), and every test here only reads from it.
var (
	moduleOnce sync.Once
	moduleVal  *Module
	moduleErr  error
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		moduleVal, moduleErr = LoadModule(filepath.Join("..", ".."), nil)
	})
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return moduleVal
}

// baseline is the real module analyzed once with the full v2 pipeline:
// per-package analysis into a shared fact store, finish passes over the
// merged facts, and the stale-suppression scan. TestModuleIsClean asserts
// its findings are empty, and the fixture tests clone its fact store so
// cross-package fixtures see the real serve/obs facts.
type baseline struct {
	store    *FactStore
	findings []Finding
}

var (
	baselineOnce sync.Once
	baselineVal  *baseline
)

func moduleBaseline(t *testing.T) *baseline {
	t.Helper()
	mod := loadTestModule(t)
	baselineOnce.Do(func() {
		store := NewFactStore()
		allows := allowIndex{}
		var all []Finding
		for _, pkg := range mod.Pkgs {
			fs, a := RunPackage(mod, pkg, Analyzers, store)
			all = append(all, fs...)
			allows.merge(a)
		}
		ran := map[string]bool{}
		for _, a := range Analyzers {
			ran[a.Name] = true
		}
		for _, a := range Analyzers {
			if a.Finish != nil {
				a.Finish(&FinishPass{Analyzer: a, ModulePath: mod.Path, facts: store, allows: allows, findings: &all})
			}
		}
		staleAllowFindings(allows, ran, &all)
		SortFindings(all)
		baselineVal = &baseline{store: store, findings: all}
	})
	return baselineVal
}

// checkFixture compiles the fixture directory under the synthetic import
// path and runs the analyzer suite package-locally (no finish passes, no
// stale scan), failing on any type error: a fixture that does not compile
// proves nothing.
func checkFixture(t *testing.T, name, pkgPath string) ([]Finding, *Package) {
	t.Helper()
	mod := loadTestModule(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := mod.CheckPackageDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("CheckPackageDir(%s): %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	findings, _ := RunPackage(mod, pkg, Analyzers, NewFactStore())
	return findings, pkg
}

// fixturePipeline runs a fixture through the full v2 pipeline: dependency
// fixtures are compiled, registered and analyzed first so their facts
// exist, then the fixture itself is analyzed against a clone of the real
// module's fact store, the finish passes and stale scan run, and the
// findings are filtered down to the fixture's own files (the finish
// passes see module-wide facts but the module itself is clean).
func fixturePipeline(t *testing.T, name, pkgPath string, deps [][2]string) ([]Finding, *Package) {
	t.Helper()
	mod := loadTestModule(t)
	store := moduleBaseline(t).store.Clone()
	for _, dep := range deps {
		depDir := filepath.Join("testdata", "src", dep[0])
		depPkg, err := mod.CheckPackageDir(depDir, dep[1])
		if err != nil {
			t.Fatalf("CheckPackageDir(%s): %v", depDir, err)
		}
		for _, terr := range depPkg.TypeErrors {
			t.Errorf("dep fixture %s: type error: %v", dep[0], terr)
		}
		mod.AddPackage(depPkg)
		RunPackage(mod, depPkg, Analyzers, store)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := mod.CheckPackageDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("CheckPackageDir(%s): %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	findings, allows := RunPackage(mod, pkg, Analyzers, store)
	for _, a := range Analyzers {
		if a.Finish != nil {
			a.Finish(&FinishPass{Analyzer: a, ModulePath: mod.Path, facts: store, allows: allows, findings: &findings})
		}
	}
	ran := map[string]bool{}
	for _, a := range Analyzers {
		ran[a.Name] = true
	}
	staleAllowFindings(allows, ran, &findings)
	prefix := dir + string(os.PathSeparator)
	var kept []Finding
	for _, f := range findings {
		if strings.HasPrefix(f.Pos.Filename, prefix) {
			kept = append(kept, f)
		}
	}
	SortFindings(kept)
	return kept, pkg
}

// wantMarkers extracts the fixture's "// want <analyzer>..." comments as a
// line → expected-analyzers map.
func wantMarkers(mod *Module, pkg *Package) map[int][]string {
	wants := map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := mod.Fset.Position(c.Pos()).Line
				wants[line] = append(wants[line], strings.Fields(rest)...)
			}
		}
	}
	return wants
}

// matchWants compares actual findings against the fixture's markers, in
// both directions: every marker must fire, and nothing else may.
func matchWants(t *testing.T, mod *Module, pkg *Package, findings []Finding) {
	t.Helper()
	wants := wantMarkers(mod, pkg)
	got := map[int][]string{}
	for _, f := range findings {
		got[f.Pos.Line] = append(got[f.Pos.Line], f.Analyzer)
	}
	for line, analyzers := range wants {
		sort.Strings(analyzers)
		g := append([]string(nil), got[line]...)
		sort.Strings(g)
		if fmt.Sprint(analyzers) != fmt.Sprint(g) {
			t.Errorf("line %d: want findings %v, got %v", line, analyzers, g)
		}
	}
	for line, analyzers := range got {
		if _, ok := wants[line]; !ok {
			t.Errorf("line %d: unexpected findings %v", line, analyzers)
		}
	}
}

// Each per-package analyzer's fixture is checked under an internal/ path
// so the path-sensitive rules treat it as library code; the markers pin
// both the positive cases and (by absence) the negative ones.
func TestFixtures(t *testing.T) {
	for _, name := range []string{"poolgo", "refreshgo", "rngdet", "nopanic", "errwrap", "floateq"} {
		t.Run(name, func(t *testing.T) {
			mod := loadTestModule(t)
			findings, pkg := checkFixture(t, name, mod.Path+"/internal/"+name+"fixture")
			matchWants(t, mod, pkg, findings)
		})
	}
}

// The cross-package dataflow fixtures run through the full pipeline:
// facts from the real serve/obs packages (and, for ctxguard, a dependency
// fixture analyzed first) flow into the fixture's analysis, and the
// finish passes join module-wide facts. The ctxguard fixture sits under a
// synthetic internal/serve/ path so the trio rules apply to it.
func TestDataflowFixtures(t *testing.T) {
	cases := []struct {
		name string
		path string // appended to the module path
		deps [][2]string
	}{
		{"snapfreeze", "/internal/snapfreezefixture", nil},
		{"ctxguard", "/internal/serve/ctxguardfixture", [][2]string{{"ctxguarddep", "/internal/ctxguarddepfixture"}}},
		{"ctxguardanalysis", "/internal/analysis/ctxguardanalysisfixture", nil},
		{"lockatomic", "/internal/lockatomicfixture", nil},
		{"metricreg", "/internal/metricregfixture", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod := loadTestModule(t)
			deps := make([][2]string, len(c.deps))
			for i, d := range c.deps {
				deps[i] = [2]string{d[0], mod.Path + d[1]}
			}
			findings, pkg := fixturePipeline(t, c.name, mod.Path+c.path, deps)
			matchWants(t, mod, pkg, findings)
		})
	}
}

// A suppression that fires is used; one with nothing beneath it is stale;
// one naming a nonexistent analyzer is a typo. The latter two surface as
// findings of the pseudo-analyzer "lint". Want markers cannot live inside
// allow comments, so this test asserts the findings directly.
func TestStaleAllow(t *testing.T) {
	mod := loadTestModule(t)
	findings, pkg := fixturePipeline(t, "allowstale", mod.Path+"/internal/allowstalefixture", nil)
	lineOf := func(substr string) int {
		t.Helper()
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, substr) {
						return mod.Fset.Position(c.Pos()).Line
					}
				}
			}
		}
		t.Fatalf("fixture comment %q not found", substr)
		return 0
	}
	want := []struct {
		line    int
		message string
	}{
		{lineOf("nothing here panics"), "stale suppression"},
		{lineOf("no analyzer has this name"), "unknown analyzer"},
	}
	if len(findings) != len(want) {
		t.Fatalf("want %d lint findings, got %d:\n%v", len(want), len(findings), findings)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].line < want[j].line })
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != "lint" || f.Pos.Line != w.line || !strings.Contains(f.Message, w.message) {
			t.Errorf("finding %d = %s, want lint %q at line %d", i, f, w.message, w.line)
		}
	}
}

// The poolgo and nopanic contracts do not apply to cmd/ main packages:
// the same fixtures checked under a cmd/ path must come back clean.
func TestCmdPackagesAreExempt(t *testing.T) {
	mod := loadTestModule(t)
	for _, name := range []string{"poolgo", "nopanic"} {
		findings, _ := checkFixture(t, name, mod.Path+"/cmd/"+name+"fixture")
		for _, f := range findings {
			t.Errorf("fixture %s under cmd/: unexpected finding: %s", name, f)
		}
	}
}

// A //lint:allow without a reason must not suppress anything and is itself
// reported by the pseudo-analyzer "lint".
func TestMalformedAnnotation(t *testing.T) {
	mod := loadTestModule(t)
	findings, _ := checkFixture(t, "allowbad", mod.Path+"/internal/allowbadfixture")
	var analyzers []string
	for _, f := range findings {
		analyzers = append(analyzers, f.Analyzer)
	}
	sort.Strings(analyzers)
	if fmt.Sprint(analyzers) != fmt.Sprint([]string{"lint", "nopanic"}) {
		t.Fatalf("want [lint nopanic] findings, got %v:\n%v", analyzers, findings)
	}
}

// The module's own source must lint clean with the full v2 suite — facts,
// finish passes and stale-suppression scan included. This is the
// tree-wide contract check that cmd/icnvet enforces in CI, run here so
// `go test` alone catches a regression.
func TestModuleIsClean(t *testing.T) {
	mod := loadTestModule(t)
	for _, pkg := range mod.Pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.PkgPath, terr)
		}
	}
	for _, f := range moduleBaseline(t).findings {
		t.Errorf("module not lint-clean: %s", f)
	}
}

func TestModuleLoadShape(t *testing.T) {
	mod := loadTestModule(t)
	if mod.Path != "repro" {
		t.Fatalf("module path = %q, want repro", mod.Path)
	}
	for _, path := range []string{"repro/internal/pipe", "repro/internal/rng", "repro/internal/mat", "repro/cmd/icnvet"} {
		if mod.PackageByPath(path) == nil {
			t.Errorf("package %s not loaded", path)
		}
	}
	// Dependencies-first ordering: pipe must be checked before analysis,
	// which imports it.
	idx := map[string]int{}
	for i, pkg := range mod.Pkgs {
		idx[pkg.PkgPath] = i
	}
	if idx["repro/internal/pipe"] > idx["repro/internal/analysis"] {
		t.Errorf("pipe checked after analysis: topo order broken")
	}
	// Levels respect dependencies: every module-internal import sits on a
	// strictly lower level, which is what makes the parallel waves safe.
	for _, pkg := range mod.Pkgs {
		for _, dep := range pkg.Imports() {
			if d := mod.PackageByPath(dep); d != nil && d.level >= pkg.level {
				t.Errorf("%s (level %d) imports %s (level %d): wave ordering broken", pkg.PkgPath, pkg.level, dep, d.level)
			}
		}
	}
}

// RunModule end to end over a module that has findings: a tiny throwaway
// module whose packages import nothing (so no stdlib type-checking
// happens) must yield exactly one raw go statement and one stale
// suppression, and the stale allow must appear unused in the report.
func TestRunModuleFindings(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tiny\n\ngo 1.22\n")
	write("internal/a/a.go", `package a

func Spawn(f func()) {
	go f()
}
`)
	write("internal/b/b.go", `package b

import "tiny/internal/a"

func Use() {
	a.Spawn(func() {})
	//lint:allow rngdet deliberately stale suppression
	_ = 1
}
`)
	res, err := RunModule(Options{Dir: dir})
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	if res.Timing.Packages != 2 {
		t.Errorf("loaded %d packages, want 2", res.Timing.Packages)
	}
	var analyzers []string
	for _, f := range res.Findings {
		analyzers = append(analyzers, f.Analyzer)
	}
	sort.Strings(analyzers)
	if fmt.Sprint(analyzers) != fmt.Sprint([]string{"lint", "poolgo"}) {
		t.Errorf("want [lint poolgo] findings, got %v:\n%v", analyzers, res.Findings)
	}
	if len(res.Allows) != 1 || res.Allows[0].Analyzer != "rngdet" || res.Allows[0].Used {
		t.Errorf("want one unused rngdet allow, got %+v", res.Allows)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("nopanic, errwrap")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "nopanic" || got[1].Name != "errwrap" {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	if _, err := ByName("nopanic,nopanic"); err == nil {
		t.Fatal("ByName accepted a duplicate analyzer, which would double-report")
	}
}

func TestCountWrapVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   int
	}{
		{"plain", 0},
		{"%w", 1},
		{"%v and %w", 1},
		{"%w then %w", 2},
		{"100%% %w", 1},
		{"%%w", 0},
		{"%+w", 1},
		{"%[1]w", 1},
	}
	for _, c := range cases {
		if got := countWrapVerbs(c.format); got != c.want {
			t.Errorf("countWrapVerbs(%q) = %d, want %d", c.format, got, c.want)
		}
	}
}

func TestAllowAdjacency(t *testing.T) {
	rec := &AllowRecord{Pos: token.Position{Filename: "f.go", Line: 10}, Analyzer: "nopanic", Reason: "test"}
	ai := allowIndex{
		allowKey{"f.go", 10, "nopanic"}: rec,
	}
	for _, c := range []struct {
		line int
		want bool
	}{
		{10, true},  // same line
		{11, true},  // line below the annotation
		{12, false}, // two lines down: not covered
		{9, false},  // line above: not covered
	} {
		pos := token.Position{Filename: "f.go", Line: c.line}
		if got := ai.allowed("nopanic", pos); got != c.want {
			t.Errorf("allowed(line %d) = %v, want %v", c.line, got, c.want)
		}
	}
	if !rec.Used {
		t.Error("suppressing a finding did not mark the record used")
	}
	if ai.allowed("errwrap", token.Position{Filename: "f.go", Line: 10}) {
		t.Error("annotation for nopanic suppressed errwrap")
	}
}
