package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pipe"
)

// Package is one package of the module under analysis.
type Package struct {
	// PkgPath is the import path ("repro/internal/mat"; the module path
	// itself for the root package).
	PkgPath string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types is the checked package object.
	Types *types.Package
	// Info is the type-checker's expression/object table for Files.
	Info *types.Info
	// TypeErrors collects type-checker diagnostics. Analysis proceeds on
	// the partial information, mirroring go vet's tolerance.
	TypeErrors []error

	imports []string // module-internal imports, for topo ordering
	level   int      // 1 + max dependency level; packages of equal level check in parallel
}

// Imports returns the package's module-internal imports.
func (p *Package) Imports() []string { return p.imports }

// Module is a loaded Go module: every package discovered, parsed and
// type-checked, in dependency order.
type Module struct {
	// Dir is the absolute module root (where go.mod lives).
	Dir string
	// Path is the module path declared in go.mod.
	Path string
	// Fset resolves positions for every parsed file.
	Fset *token.FileSet
	// Pkgs lists the packages in topological (dependencies-first) order.
	Pkgs []*Package

	byPath map[string]*Package
	std    types.Importer
}

// PackageByPath returns the loaded package with the given import path.
func (m *Module) PackageByPath(path string) *Package { return m.byPath[path] }

// skipDirs are directory names never descended into during discovery.
// testdata holds lint fixtures that intentionally violate the contracts.
var skipDirs = map[string]bool{
	"testdata":  true,
	"vendor":    true,
	".git":      true,
	".github":   true,
	"artifacts": true,
}

// LoadModule discovers, parses and type-checks every package under the
// module rooted at dir, using only the standard library: module-internal
// imports resolve against the packages being checked, and everything else
// (the standard library) is type-checked from $GOROOT source via the
// go/importer "source" compiler, so no export data or external tooling is
// needed. Independent packages type-check in parallel on pool (nil means
// the process-shared internal/pipe pool).
func LoadModule(dir string, pool *pipe.Pool) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolve module dir: %w", err)
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Dir: abs, Path: modPath, Fset: token.NewFileSet(), byPath: map[string]*Package{}}

	// Discover package directories.
	var pkgDirs []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				pkgDirs = append(pkgDirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walk module: %w", err)
	}
	sort.Strings(pkgDirs)

	// Parse every package and collect its module-internal imports.
	for _, pdir := range pkgDirs {
		rel, err := filepath.Rel(abs, pdir)
		if err != nil {
			return nil, fmt.Errorf("lint: relativize %s: %w", pdir, err)
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := parsePackage(mod.Fset, pdir, pkgPath, modPath)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable files
		}
		mod.byPath[pkgPath] = pkg
	}

	// Topologically sort by module-internal imports so dependencies are
	// checked before their importers, and assign parallelism levels: a
	// package's level is one past its deepest module-internal dependency,
	// so packages of equal level are independent and check concurrently.
	order, err := topoSort(mod.byPath)
	if err != nil {
		return nil, err
	}
	for _, pkg := range order {
		pkg.level = 1
		for _, dep := range pkg.imports {
			if d := mod.byPath[dep]; d != nil && d.level >= pkg.level {
				pkg.level = d.level + 1
			}
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}

	// The go/importer source importer is not safe for concurrent use;
	// serialize it so packages can type-check in parallel around it.
	mod.std = &lockedImporter{std: importer.ForCompiler(mod.Fset, "source", nil)}
	mod.inWaves(pool, func(pkg *Package) { checkPackage(mod, pkg, mod.std) })
	return mod, nil
}

// inWaves calls fn for every package in dependency waves: packages of
// equal topological level are independent and run in parallel on pool
// (nil means the shared pool). The wave barrier makes dependency
// *types.Package and fact reads race-free: everything a wave imports was
// completed by an earlier wave. Background context: a lint run is not
// cancellable mid-wave.
func (m *Module) inWaves(pool *pipe.Pool, fn func(*Package)) {
	if pool == nil {
		pool = pipe.Shared()
	}
	var waves [][]*Package
	for _, pkg := range m.Pkgs {
		for len(waves) < pkg.level {
			waves = append(waves, nil)
		}
		waves[pkg.level-1] = append(waves[pkg.level-1], pkg)
	}
	for _, wave := range waves {
		_ = pool.ForEach(context.Background(), len(wave), func(i int) { fn(wave[i]) })
	}
}

// AddPackage registers an externally checked package (a test fixture
// compiled by CheckPackageDir) under its synthetic import path, so other
// fixture packages can import it and cross-package facts flow to it.
func (m *Module) AddPackage(pkg *Package) { m.byPath[pkg.PkgPath] = pkg }

// CheckPackageDir parses and type-checks the sources in dir as though the
// package had the import path pkgPath, resolving module-internal imports
// against the already-loaded module. The package is not added to the
// module (use AddPackage for fixtures that other fixtures import). The
// fixture tests use this to compile testdata packages — which the
// discovery walk deliberately skips — under synthetic paths like
// "repro/internal/fixture", so the path-sensitive analyzers see them as
// library or command packages at will.
func (m *Module) CheckPackageDir(dir, pkgPath string) (*Package, error) {
	pkg, err := parsePackage(m.Fset, dir, pkgPath, m.Path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	checkPackage(m, pkg, m.std)
	return pkg, nil
}

// parsePackage parses the non-test .go files of one directory. Files
// whose package clause does not match the directory majority (e.g. a
// stray main) are grouped by the first file's package name; directories
// with no parseable files yield nil.
func parsePackage(fset *token.FileSet, dir, pkgPath, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	pkg := &Package{PkgPath: pkgPath, Dir: dir}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (path == modPath || strings.HasPrefix(path, modPath+"/")) && !seen[path] {
				seen[path] = true
				pkg.imports = append(pkg.imports, path)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// topoSort orders packages dependencies-first; a module-internal import
// cycle is an error (the Go compiler would reject it too).
func topoSort(pkgs map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		pkg := pkgs[path]
		if pkg != nil {
			for _, dep := range pkg.imports {
				if _, ok := pkgs[dep]; !ok {
					continue // resolved by the driver as a hard error later
				}
				if err := visit(dep); err != nil {
					return err
				}
			}
			order = append(order, pkg)
		}
		state[path] = done
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// lockedImporter serializes access to the go/importer source importer,
// which is not safe for concurrent use; the per-package type checks
// running in parallel around it are.
type lockedImporter struct {
	mu  sync.Mutex
	std types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.std.Import(path)
}

// moduleImporter resolves module-internal imports from the already-checked
// packages and defers everything else to the source importer.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := mi.mod.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s imported before it was checked", path)
		}
		return pkg.Types, nil
	}
	return mi.std.Import(path)
}

// checkPackage runs go/types over one parsed package, tolerating type
// errors the way go vet does: diagnostics are collected and analysis
// proceeds on the partial Info.
func checkPackage(mod *Module, pkg *Package, std types.Importer) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: &moduleImporter{mod: mod, std: std},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.PkgPath, mod.Fset, pkg.Files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path := strings.TrimSpace(rest)
			path = strings.Trim(path, `"`)
			if path != "" {
				return path, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module path in %s", gomod)
}
