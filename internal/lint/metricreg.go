package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// metricreg closes the metric namespace: every metric name the module
// emits through internal/obs must be registered in the obs.Catalog
// exactly once with the matching kind, and every non-dynamic catalog
// entry must be emitted from at least one call site, through an
// *obs.Registry method exactly when the entry is marked Instance. The obs
// package exports its catalog as a package fact, every other package
// exports the metric uses (and Registry.Counter reads) it observed, and
// the finish pass joins the two — so an unregistered series, a dead
// registration, a duplicate entry, a counter observed as a histogram or a
// series in the wrong registry is a lint failure, not a dashboard surprise.

// metricCatalogEntry is one obs.Catalog row as seen by the analyzer.
type metricCatalogEntry struct {
	Name     string
	Kind     string // "counter" | "histogram"
	Dynamic  bool
	Instance bool
	Pos      token.Position
}

// metricCatalogFact is the package fact the obs package exports.
type metricCatalogFact struct {
	Entries []metricCatalogEntry
}

// metricUse is one obs.Add / obs.ObserveMS / obs.GetHistogram call site,
// or a call of the obs.Registry method of that name or of its Counter
// reader, with a constant metric name.
type metricUse struct {
	Name   string
	Kind   string
	Method bool // through an *obs.Registry, not obs.Default
	Read   bool // Registry.Counter: names a series, emits nothing
	Pos    token.Position
}

// metricUseFact is the package fact every non-obs package exports.
type metricUseFact struct {
	Uses []metricUse
}

// MetricRegistry is the metricreg analyzer.
var MetricRegistry = &Analyzer{
	Name:   "metricreg",
	Doc:    "every emitted metric name is registered in the obs catalog exactly once, with the right kind, and every registered metric is emitted",
	Run:    runMetricReg,
	Finish: finishMetricReg,
}

// obsPkgPath returns the metrics package path for the module under
// analysis.
func obsPkgPath(modulePath string) string { return modulePath + "/internal/obs" }

// metricEmitters maps the obs entry points to the metric kind they imply.
// Counter exists only as the Registry reader.
var metricEmitters = map[string]string{
	"Add":          "counter",
	"ObserveMS":    "histogram",
	"GetHistogram": "histogram",
	"Counter":      "counter",
}

func runMetricReg(pass *Pass) {
	if pass.PkgPath == obsPkgPath(pass.ModulePath) {
		// The catalog's own package registers; its internals forward name
		// parameters (Add, metricName, the init seeding loop), so its call
		// sites are exempt from the constant-name rule.
		exportMetricCatalog(pass)
		return
	}
	var fact metricUseFact
	inspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath(pass.ModulePath) {
			return true
		}
		kind, ok := metricEmitters[fn.Name()]
		if !ok || len(call.Args) == 0 {
			return true
		}
		name, isConst := constStringArg(pass, call.Args[0])
		if !isConst {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to obs.%s is not a string constant; dynamic names bypass the catalog (register every composed name and annotate the site)", fn.Name())
			return true
		}
		// Registry is the only obs type with methods of these names.
		method := fn.Type().(*types.Signature).Recv() != nil
		fact.Uses = append(fact.Uses, metricUse{Name: name, Kind: kind, Method: method,
			Read: fn.Name() == "Counter", Pos: pass.Fset.Position(call.Args[0].Pos())})
		return true
	})
	if len(fact.Uses) > 0 {
		pass.ExportPackageFact(fact)
	}
}

// constStringArg resolves arg to a compile-time string constant.
func constStringArg(pass *Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// exportMetricCatalog parses the obs package's Catalog composite literal
// into a package fact.
func exportMetricCatalog(pass *Pass) {
	var fact metricCatalogFact
	inspectAll(pass, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if name.Name != "Catalog" || i >= len(spec.Values) {
				continue
			}
			lit, ok := spec.Values[i].(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range lit.Elts {
				entry, ok := parseCatalogEntry(pass, elt)
				if ok {
					fact.Entries = append(fact.Entries, entry)
				}
			}
		}
		return true
	})
	if len(fact.Entries) > 0 {
		pass.ExportPackageFact(fact)
	}
}

// parseCatalogEntry reads one MetricDef composite literal.
func parseCatalogEntry(pass *Pass, elt ast.Expr) (metricCatalogEntry, bool) {
	lit, ok := elt.(*ast.CompositeLit)
	if !ok {
		return metricCatalogEntry{}, false
	}
	entry := metricCatalogEntry{Pos: pass.Fset.Position(elt.Pos())}
	for _, field := range lit.Elts {
		kv, ok := field.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			if s, ok := constStringArg(pass, kv.Value); ok {
				entry.Name = s
			}
		case "Kind":
			if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok {
				switch id.Name {
				case "KindCounter":
					entry.Kind = "counter"
				case "KindHistogram":
					entry.Kind = "histogram"
				}
			}
		case "Dynamic", "Instance":
			if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok && id.Name == "true" {
				if key.Name == "Dynamic" {
					entry.Dynamic = true
				} else {
					entry.Instance = true
				}
			}
		}
	}
	return entry, entry.Name != ""
}

func finishMetricReg(fp *FinishPass) {
	var catalog metricCatalogFact
	if !fp.packageFact(obsPkgPath(fp.ModulePath), &catalog) {
		// No catalog package in the analyzed set (e.g. a fixture-only run):
		// nothing to join against.
		return
	}
	byName := map[string]*metricCatalogEntry{}
	for i := range catalog.Entries {
		e := &catalog.Entries[i]
		if prev, dup := byName[e.Name]; dup {
			fp.Reportf(e.Pos, "metric %q is registered twice in the obs catalog (first at %s:%d)", e.Name, prev.Pos.Filename, prev.Pos.Line)
			continue
		}
		byName[e.Name] = e
	}
	used := map[string]bool{}
	fp.EachPackageFact(func(pkgPath string, f any) {
		uses, ok := f.(metricUseFact)
		if !ok {
			return
		}
		for _, u := range uses.Uses {
			entry, registered := byName[u.Name]
			if !registered {
				fp.Reportf(u.Pos, "metric %q is not registered in the obs catalog; add a MetricDef so /metrics cannot grow unregistered series", u.Name)
				continue
			}
			if entry.Kind != u.Kind {
				fp.Reportf(u.Pos, "metric %q is registered as a %s but emitted as a %s", u.Name, entry.Kind, u.Kind)
			}
			switch {
			case entry.Instance && !u.Method:
				fp.Reportf(u.Pos, "metric %q is instance-scoped; use the owning server's or router's *obs.Registry, not the process-wide obs functions", u.Name)
			case !entry.Instance && u.Method:
				fp.Reportf(u.Pos, "metric %q is process-scoped; use the package-level obs functions (obs.Default), not an instance registry", u.Name)
			}
			if !u.Read {
				used[u.Name] = true
			}
		}
	})
	// Dead registrations: a non-dynamic entry no call site emits.
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := byName[n]
		if !e.Dynamic && !used[n] {
			fp.Reportf(e.Pos, "metric %q is registered but never emitted; delete the entry or mark it Dynamic with an annotated composition site", n)
		}
	}
}

// packageFact copies the fact this analyzer exported about pkgPath into
// *ptr (FinishPass-side import).
func (fp *FinishPass) packageFact(pkgPath string, ptr any) bool {
	return fp.facts.get(factKey{fp.Analyzer.Name, pkgPath, ""}, ptr)
}
