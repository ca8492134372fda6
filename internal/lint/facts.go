package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// This file implements the cross-package facts mechanism: analyzers
// running on a package may export typed facts about its objects (functions
// today; any package-scope object in principle) or about the package
// itself. Because the engine analyzes packages in dependency order, a
// downstream package can import the facts its dependencies exported —
// escape summaries, field-access summaries, metric catalogs — which is
// what turns the per-package AST linter into a module-wide dataflow
// engine. The design mirrors golang.org/x/tools/go/analysis facts, on the
// standard library only.
//
// Facts are keyed by (analyzer, package path, object key) where the
// object key is stable across loads: functions use types.Func.FullName
// ("(*repro/internal/serve.Server).SwapSnapshot"), other package-scope
// objects use "pkgpath.Name", and a package fact uses the empty object
// key. Fact values are plain structs.

// factKey addresses one fact in the store.
type factKey struct {
	analyzer string
	pkgPath  string
	obj      string // "" for package facts
}

// FactStore holds every fact exported during one module run. It is safe
// for concurrent use: packages in the same dependency wave are analyzed in
// parallel and export concurrently, while reads only target completed
// dependency waves.
type FactStore struct {
	mu sync.Mutex
	m  map[factKey]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factKey]any{}}
}

// Clone copies the store. The fixture test harness snapshots the real
// module's facts before mixing in a fixture package's.
func (s *FactStore) Clone() *FactStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &FactStore{m: make(map[factKey]any, len(s.m))}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

func (s *FactStore) set(k factKey, fact any) {
	s.mu.Lock()
	s.m[k] = fact
	s.mu.Unlock()
}

// get copies the stored fact into the struct pointed to by ptr and
// reports whether the fact existed.
func (s *FactStore) get(k factKey, ptr any) bool {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		return false
	}
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return false
	}
	sv := reflect.ValueOf(v)
	if sv.Type() != rv.Elem().Type() {
		return false
	}
	rv.Elem().Set(sv)
	return true
}

// factRecord is the flattened form of one fact, walked by the finish
// passes and the -facts-debug dump.
type factRecord struct {
	Analyzer string
	PkgPath  string
	Obj      string
	Fact     any
}

// records returns every fact, sorted for deterministic output.
func (s *FactStore) records() []factRecord {
	s.mu.Lock()
	out := make([]factRecord, 0, len(s.m))
	for k, v := range s.m {
		out = append(out, factRecord{Analyzer: k.analyzer, PkgPath: k.pkgPath, Obj: k.obj, Fact: v})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Obj < b.Obj
	})
	return out
}

// DebugString renders the store for icnvet -facts-debug: one line per
// fact, grouped by package, with the fact's %+v rendering.
func (s *FactStore) DebugString() string {
	var b []byte
	for _, r := range s.records() {
		obj := r.Obj
		if obj == "" {
			obj = "(package)"
		}
		b = fmt.Appendf(b, "%s\t%s\t%s\t%+v\n", r.PkgPath, r.Analyzer, obj, r.Fact)
	}
	return string(b)
}

// objFactKey derives the stable object key facts are addressed by.
// Functions and methods use their fully qualified FullName; any other
// package-scope object uses "pkgpath.Name". Objects without a package
// (builtins, universe scope) are not addressable and yield "".
func objFactKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ExportObjectFact publishes fact about obj, an object of the package
// under analysis, for downstream packages (and the analyzer's Finish
// pass) to import.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	key := objFactKey(obj)
	if key == "" || p.facts == nil {
		return
	}
	p.facts.set(factKey{p.Analyzer.Name, obj.Pkg().Path(), key}, fact)
}

// ImportObjectFact copies the fact previously exported about obj into
// *ptr, reporting whether one existed. The object may belong to any
// already-analyzed package, including the current one.
func (p *Pass) ImportObjectFact(obj types.Object, ptr any) bool {
	key := objFactKey(obj)
	if key == "" || p.facts == nil {
		return false
	}
	return p.facts.get(factKey{p.Analyzer.Name, obj.Pkg().Path(), key}, ptr)
}

// ExportPackageFact publishes fact about the package under analysis.
func (p *Pass) ExportPackageFact(fact any) {
	if p.facts == nil {
		return
	}
	p.facts.set(factKey{p.Analyzer.Name, p.PkgPath, ""}, fact)
}

// ImportPackageFact copies the fact exported about pkgPath into *ptr.
func (p *Pass) ImportPackageFact(pkgPath string, ptr any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(factKey{p.Analyzer.Name, pkgPath, ""}, ptr)
}

// FinishPass is the view an analyzer's Finish hook gets after every
// package has been analyzed: the module-wide fact store plus a reporter
// that honors //lint:allow annotations anywhere in the module.
type FinishPass struct {
	// Analyzer is the rule being finished.
	Analyzer *Analyzer
	// ModulePath is the module path from go.mod.
	ModulePath string

	facts    *FactStore
	allows   allowIndex
	findings *[]Finding
}

// EachPackageFact invokes fn for every package fact this analyzer
// exported, in deterministic package-path order.
func (fp *FinishPass) EachPackageFact(fn func(pkgPath string, fact any)) {
	for _, r := range fp.facts.records() {
		if r.Analyzer == fp.Analyzer.Name && r.Obj == "" {
			fn(r.PkgPath, r.Fact)
		}
	}
}

// EachObjectFact invokes fn for every object fact this analyzer exported,
// in deterministic order.
func (fp *FinishPass) EachObjectFact(fn func(pkgPath, obj string, fact any)) {
	for _, r := range fp.facts.records() {
		if r.Analyzer == fp.Analyzer.Name && r.Obj != "" {
			fn(r.PkgPath, r.Obj, r.Fact)
		}
	}
}

// Reportf records a module-level finding at an already-resolved position
// unless an annotation in the owning file suppresses it.
func (fp *FinishPass) Reportf(pos token.Position, format string, args ...any) {
	if fp.allows.allowed(fp.Analyzer.Name, pos) {
		return
	}
	*fp.findings = append(*fp.findings, Finding{
		Analyzer: fp.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}
