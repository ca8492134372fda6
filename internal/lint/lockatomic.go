package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockatomic enforces access-discipline consistency on the fields of
// module-defined structs: a field touched through sync/atomic anywhere
// must be touched through sync/atomic everywhere (one plain load next to
// atomic increments is a data race go test -race may never schedule), and
// a field whose every write is performed under a receiver mutex must hold
// that mutex on reads too. Each package exports a field-level access
// summary fact (kind, held mutexes, position); the finish pass merges the
// summaries module-wide, so a field locked in one package and read bare
// in another is still caught. Methods named *Locked are trusted to be
// called with the receiver's locks held.

// lockAccess is one field access observed somewhere in the module.
type lockAccess struct {
	// Field is the qualified field identity: "pkgpath.Struct.field".
	Field string
	// Kind is "read", "write" or "atomic".
	Kind string
	// Mutexes are the "Struct.mutexField" names held at the access; the
	// sentinel "*" (a *Locked method) satisfies any guard.
	Mutexes []string
	// Pos locates the access.
	Pos token.Position
}

// lockAccessFact is the per-package access summary.
type lockAccessFact struct {
	Accesses []lockAccess
}

// LockAtomic is the lockatomic analyzer.
var LockAtomic = &Analyzer{
	Name:   "lockatomic",
	Doc:    "a field accessed atomically anywhere must be atomic everywhere, and mutex-guarded writes imply mutex-guarded reads",
	Run:    runLockAtomic,
	Finish: finishLockAtomic,
}

func runLockAtomic(pass *Pass) {
	if pass.Pkg == nil || pass.Info == nil {
		return
	}
	var fact lockAccessFact
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			star := strings.HasSuffix(fd.Name.Name, "Locked")
			collectFieldAccesses(pass, fd.Body, star, &fact.Accesses)
		}
	}
	if len(fact.Accesses) > 0 {
		pass.ExportPackageFact(fact)
	}
}

// mutexEvent is one Lock/Unlock call inside a function body, for the
// linear held-set sweep.
type mutexEvent struct {
	pos  token.Pos
	name string
	lock bool
}

// collectFieldAccesses gathers every direct field access x.f (x an
// identifier of pointer-to-module-struct type) in body, classified as
// atomic / read / write, with the mutexes held at its position.
func collectFieldAccesses(pass *Pass, body *ast.BlockStmt, lockedHelper bool, out *[]lockAccess) {
	type rawAccess struct {
		pos   token.Pos
		field string
		kind  string
	}
	var accesses []rawAccess
	var events []mutexEvent

	// atomicArgs marks &x.f expressions passed to sync/atomic functions.
	atomicArgs := map[ast.Expr]bool{}
	// writes marks selector expressions that are assignment targets.
	writes := map[ast.Expr]bool{}
	// deferred unlocks hold until function exit; drop their events.
	deferred := map[ast.Node]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				writes[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(s.X)] = true
		case *ast.DeferStmt:
			deferred[s.Call] = true
		case *ast.CallExpr:
			fn := calleeFunc(pass, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "sync/atomic" {
				for _, arg := range s.Args {
					if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
						atomicArgs[ast.Unparen(ue.X)] = true
					}
				}
			}
			if fn.Pkg().Path() == "sync" && !deferred[s] {
				switch fn.Name() {
				case "Lock", "RLock", "Unlock", "RUnlock":
					if name := mutexChainName(pass, s); name != "" {
						events = append(events, mutexEvent{s.Pos(), name, strings.HasSuffix(fn.Name(), "Lock") && !strings.Contains(fn.Name(), "Un")})
					}
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field := fieldIdentity(pass, sel)
		if field == "" {
			return true
		}
		kind := "read"
		switch {
		case atomicArgs[sel]:
			kind = "atomic"
		case writes[sel]:
			kind = "write"
		}
		accesses = append(accesses, rawAccess{sel.Pos(), field, kind})
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	heldAt := func(pos token.Pos) []string {
		if lockedHelper {
			return []string{"*"}
		}
		held := map[string]bool{}
		for _, e := range events {
			if e.pos >= pos {
				break
			}
			held[e.name] = e.lock
		}
		var names []string
		for name, on := range held {
			if on {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	for _, a := range accesses {
		*out = append(*out, lockAccess{
			Field:   a.field,
			Kind:    a.kind,
			Mutexes: heldAt(a.pos),
			Pos:     pass.Fset.Position(a.pos),
		})
	}
}

// fieldIdentity resolves sel to "pkgpath.Struct.field" when sel is a
// direct field selection x.f with x an identifier of pointer-to-named
// module struct type. Fields whose own type comes from sync or
// sync/atomic (mutexes, atomic.Pointer, WaitGroup, sync.Map) are skipped:
// their access discipline is the type's own API. Value roots are skipped
// too — a copy is private memory.
func fieldIdentity(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isVar := pass.Info.Uses[id].(*types.Var); !isVar {
		return ""
	}
	selection := pass.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal || len(selection.Index()) != 1 {
		return ""
	}
	ptr, ok := pass.TypeOf(id).(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkgPath := obj.Pkg().Path()
	if pkgPath != pass.ModulePath && !strings.HasPrefix(pkgPath, pass.ModulePath+"/") {
		return ""
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	fieldVar, ok := selection.Obj().(*types.Var)
	if !ok || syncOwnedType(fieldVar.Type()) {
		return ""
	}
	return pkgPath + "." + obj.Name() + "." + fieldVar.Name()
}

// syncOwnedType reports whether t (or its element) is defined in sync or
// sync/atomic.
func syncOwnedType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// mutexChainName names the mutex behind an x.mu.Lock()-style call as
// "Struct.mu", so accesses guarded by the same struct's mutex correlate
// across functions (instances approximate to their type).
func mutexChainName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := ast.Unparen(inner.X).(*ast.Ident)
	if !ok {
		return ""
	}
	t := pass.TypeOf(id)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return ""
	}
	return named.Obj().Name() + "." + inner.Sel.Name
}

func finishLockAtomic(fp *FinishPass) {
	byField := map[string][]lockAccess{}
	fp.EachPackageFact(func(pkgPath string, f any) {
		fact, ok := f.(lockAccessFact)
		if !ok {
			return
		}
		for _, a := range fact.Accesses {
			byField[a.Field] = append(byField[a.Field], a)
		}
	})
	fields := make([]string, 0, len(byField))
	for f := range byField {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		accs := byField[field]
		sort.Slice(accs, func(i, j int) bool {
			a, b := accs[i].Pos, accs[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Line < b.Line
		})
		hasAtomic := false
		for _, a := range accs {
			if a.Kind == "atomic" {
				hasAtomic = true
				break
			}
		}
		if hasAtomic {
			// Atomic-everywhere: any plain access races the atomic ones.
			for _, a := range accs {
				if a.Kind != "atomic" {
					fp.Reportf(a.Pos, "field %s is accessed atomically elsewhere; this plain %s races them — use sync/atomic here too", field, a.Kind)
				}
			}
			continue
		}
		// Mutex discipline: if every write holds a common mutex, reads
		// must hold it as well.
		guards := mutexGuards(accs)
		if len(guards) == 0 {
			continue
		}
		for _, a := range accs {
			if a.Kind != "read" {
				continue
			}
			if !holdsAny(a.Mutexes, guards) {
				fp.Reportf(a.Pos, "field %s is always written under %s but this read does not hold it", field, strings.Join(guards, "/"))
			}
		}
	}
}

// mutexGuards returns the mutexes held by every write access (the
// inferred guard set), or nil when there are no writes or no common
// mutex. Writes in *Locked helpers (the "*" sentinel) satisfy any
// candidate set.
func mutexGuards(accs []lockAccess) []string {
	var guards []string
	sawWrite := false
	first := true
	for _, a := range accs {
		if a.Kind != "write" {
			continue
		}
		sawWrite = true
		if holdsAny(a.Mutexes, []string{"*"}) {
			continue
		}
		if first {
			guards = append([]string(nil), a.Mutexes...)
			first = false
			continue
		}
		var kept []string
		for _, g := range guards {
			for _, m := range a.Mutexes {
				if g == m {
					kept = append(kept, g)
					break
				}
			}
		}
		guards = kept
		if len(guards) == 0 {
			return nil
		}
	}
	if !sawWrite || first {
		return nil
	}
	return guards
}

// holdsAny reports whether held contains "*" or any of want.
func holdsAny(held, want []string) bool {
	for _, h := range held {
		if h == "*" {
			return true
		}
		for _, w := range want {
			if h == w {
				return true
			}
		}
	}
	return false
}
