package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// snapfreeze is write-after-publish detection for the closed-loop serving
// path: once a *serve.ModelSnapshot or *analysis.Result escapes into
// shared memory — stored through an atomic.Pointer (SwapSnapshot),
// registered into a receiver map or field (Refresher.register), or
// obtained back out of such shared memory (ResultFor, snap.Load()) — any
// subsequent write to it, directly or through a callee known to mutate
// its argument, is a finding. The paper's bit-consistency guarantee rests
// on published snapshots being frozen; go test -race only catches the
// schedules it happens to run, this catches the code shape.
//
// The analysis is an escape summary per function, exported as an object
// fact and propagated bottom-up: Publishes lists parameter indices
// (receiver = 0, then parameters) the function stores into shared memory,
// Mutates lists indices it writes through, ReturnsPublished marks
// functions returning pointers into shared memory. Within a function a
// linear, position-ordered approximation tracks which locals alias
// published memory and reports writes after the publish point.

// snapEscapeFact is the per-function escape summary.
type snapEscapeFact struct {
	// Publishes are parameter indices stored into shared memory.
	Publishes []int
	// Mutates are parameter indices written through.
	Mutates []int
	// ReturnsPublished marks a result aliasing shared memory.
	ReturnsPublished bool
}

// SnapshotFreeze is the snapfreeze analyzer.
var SnapshotFreeze = &Analyzer{
	Name: "snapfreeze",
	Doc:  "published model snapshots and analysis results are frozen: no writes after they escape via SwapSnapshot/register/ResultFor",
	Run:  runSnapFreeze,
}

// trackedPtr reports whether t is a pointer to one of the frozen types.
func trackedPtr(t types.Type, module string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return namedType(ptr.Elem(), module+"/internal/serve", "ModelSnapshot") ||
		namedType(ptr.Elem(), module+"/internal/analysis", "Result")
}

// snapFuncInfo carries one function declaration through the analysis.
type snapFuncInfo struct {
	decl   *ast.FuncDecl
	fn     *types.Func
	params map[*types.Var]int // receiver and parameters, receiver at 0
}

func runSnapFreeze(pass *Pass) {
	if pass.Pkg == nil || pass.Info == nil {
		return
	}
	var fns []*snapFuncInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			info := &snapFuncInfo{decl: fd, fn: fn, params: map[*types.Var]int{}}
			sig := fn.Type().(*types.Signature)
			idx := 0
			if sig.Recv() != nil {
				info.params[sig.Recv()] = idx
				idx++
			}
			for i := 0; i < sig.Params().Len(); i++ {
				info.params[sig.Params().At(i)] = idx
				idx++
			}
			fns = append(fns, info)
		}
	}

	// Bottom-up summaries: seed from each body, then iterate so
	// intra-package call chains converge (cross-package facts are already
	// final thanks to dependency-wave ordering).
	summaries := map[*types.Func]*snapEscapeFact{}
	factFor := func(fn *types.Func) *snapEscapeFact {
		if f, ok := summaries[fn]; ok {
			return f
		}
		var f snapEscapeFact
		if pass.ImportObjectFact(fn, &f) {
			return &f
		}
		return nil
	}
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, info := range fns {
			next := summarizeSnapFunc(pass, info, factFor)
			if prev := summaries[info.fn]; prev == nil || !sameSnapFact(prev, next) {
				summaries[info.fn] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, f := range summaries {
		if len(f.Publishes) > 0 || len(f.Mutates) > 0 || f.ReturnsPublished {
			pass.ExportObjectFact(fn, *f)
		}
	}

	for _, info := range fns {
		reportSnapViolations(pass, info, factFor)
	}
}

func sameSnapFact(a, b *snapEscapeFact) bool {
	if len(a.Publishes) != len(b.Publishes) || len(a.Mutates) != len(b.Mutates) || a.ReturnsPublished != b.ReturnsPublished {
		return false
	}
	for i := range a.Publishes {
		if a.Publishes[i] != b.Publishes[i] {
			return false
		}
	}
	for i := range a.Mutates {
		if a.Mutates[i] != b.Mutates[i] {
			return false
		}
	}
	return true
}

// rootIdent unwraps a selector/index chain to its base identifier, or nil
// for expressions not rooted in a plain variable.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isChain reports whether e is a selector or index chain (not a bare
// identifier): the shapes that reach memory beyond the variable itself.
func isChain(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// varOf resolves an identifier to its variable object.
func varOf(pass *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.Info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = pass.Info.Defs[id].(*types.Var)
	}
	return v
}

// isSharedRoot reports whether the chain e is rooted in memory visible
// beyond this call frame: a receiver/parameter or a package-level
// variable.
func isSharedRoot(pass *Pass, info *snapFuncInfo, e ast.Expr) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	v := varOf(pass, id)
	if v == nil {
		return false
	}
	if _, isParam := info.params[v]; isParam {
		return true
	}
	return v.Parent() == pass.Pkg.Scope()
}

// atomicCall matches calls to sync/atomic functions/methods by name.
func atomicCall(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Name() == name
}

// calleeArg maps a callee's summary index (receiver = 0 when present) to
// the caller-side expression, or nil when out of range.
func calleeArg(call *ast.CallExpr, callee *types.Func, idx int) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < 0 || idx >= len(call.Args) || sig.Variadic() && idx >= sig.Params().Len()-1 {
		return nil
	}
	return call.Args[idx]
}

// summarizeSnapFunc computes one function's escape summary.
func summarizeSnapFunc(pass *Pass, info *snapFuncInfo, factFor func(*types.Func) *snapEscapeFact) *snapEscapeFact {
	pubs := map[int]bool{}
	muts := map[int]bool{}
	retPub := false

	trackedParam := func(e ast.Expr) (int, bool) {
		v := varOf(pass, e)
		if v == nil || !trackedPtr(v.Type(), pass.ModulePath) {
			return 0, false
		}
		idx, ok := info.params[v]
		return idx, ok
	}

	// lastAssign resolves locals for return-position analysis: the most
	// recent syntactic assignment to each local variable.
	lastAssign := map[*types.Var]ast.Expr{}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			v := varOf(pass, l)
			if v == nil {
				continue
			}
			if rhs := rhsFor(as, i); rhs != nil {
				lastAssign[v] = rhs
			}
		}
		return true
	})

	var derivesPublished func(e ast.Expr, depth int) bool
	derivesPublished = func(e ast.Expr, depth int) bool {
		if depth <= 0 {
			return false
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if atomicCall(pass, x, "Load") {
				return true
			}
			if callee := calleeFunc(pass, x); callee != nil {
				if f := factFor(callee); f != nil && f.ReturnsPublished {
					return true
				}
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			return isSharedRoot(pass, info, e)
		case *ast.Ident:
			if v := varOf(pass, x); v != nil {
				if _, isParam := info.params[v]; isParam {
					return false // a parameter is the caller's concern
				}
				if rhs := lastAssign[v]; rhs != nil {
					return derivesPublished(rhs, depth-1)
				}
			}
		}
		return false
	}

	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				r := rhsFor(s, i)
				// Storing a tracked parameter into shared memory.
				if r != nil {
					if idx, ok := trackedParam(r); ok && isChain(l) && isSharedRoot(pass, info, l) {
						pubs[idx] = true
					}
				}
				// Writing through a tracked parameter.
				if isChain(l) {
					if idx, ok := trackedParamRoot(pass, info, l); ok {
						muts[idx] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if isChain(s.X) {
				if idx, ok := trackedParamRoot(pass, info, s.X); ok {
					muts[idx] = true
				}
			}
		case *ast.CallExpr:
			if atomicCall(pass, s, "Store") && len(s.Args) > 0 {
				if idx, ok := trackedParam(s.Args[0]); ok {
					pubs[idx] = true
				}
			}
			if callee := calleeFunc(pass, s); callee != nil {
				if f := factFor(callee); f != nil {
					for _, ci := range f.Publishes {
						if idx, ok := trackedParam(calleeArg(s, callee, ci)); ok {
							pubs[idx] = true
						}
					}
					for _, ci := range f.Mutates {
						if idx, ok := trackedParam(calleeArg(s, callee, ci)); ok {
							muts[idx] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if t := pass.TypeOf(res); trackedPtr(t, pass.ModulePath) && derivesPublished(res, 4) {
					retPub = true
				}
			}
		}
		return true
	})

	return &snapEscapeFact{Publishes: sortedKeys(pubs), Mutates: sortedKeys(muts), ReturnsPublished: retPub}
}

// rhsFor pairs an assignment's i-th left-hand side with its right-hand
// expression, handling the tuple forms: a multi-value call or comma-ok
// (map read, channel receive, type assertion) assigns its single RHS to
// every left-hand side.
func rhsFor(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	return nil
}

// trackedParamRoot resolves a chain's root to a tracked parameter index.
func trackedParamRoot(pass *Pass, info *snapFuncInfo, e ast.Expr) (int, bool) {
	id := rootIdent(e)
	if id == nil {
		return 0, false
	}
	v := varOf(pass, id)
	if v == nil || !trackedPtr(v.Type(), pass.ModulePath) {
		return 0, false
	}
	idx, ok := info.params[v]
	return idx, ok
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// reportSnapViolations runs the position-ordered write-after-publish scan
// over one function body.
func reportSnapViolations(pass *Pass, info *snapFuncInfo, factFor func(*types.Func) *snapEscapeFact) {
	// published maps each tracked variable (parameter or local) to the
	// position it was published at and a description of how.
	type pubEvent struct {
		pos token.Pos
		how string
	}
	published := map[*types.Var]pubEvent{}

	trackedVar := func(e ast.Expr) *types.Var {
		v := varOf(pass, e)
		if v == nil || !trackedPtr(v.Type(), pass.ModulePath) {
			return nil
		}
		return v
	}
	publish := func(v *types.Var, pos token.Pos, how string) bool {
		if prev, ok := published[v]; ok && prev.pos <= pos {
			return false
		}
		published[v] = pubEvent{pos, how}
		return true
	}

	// Publish-event collection iterates to propagate aliases of published
	// variables (v2 := v1 after v1 escaped).
	for iter := 0; iter < 4; iter++ {
		changed := false
		ast.Inspect(info.decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, l := range s.Lhs {
					r := rhsFor(s, i)
					if r == nil {
						continue
					}
					// Shared-memory store publishes the stored variable.
					if v := trackedVar(r); v != nil && isChain(l) && isSharedRoot(pass, info, l) {
						if publish(v, s.Pos(), "stored into shared memory") {
							changed = true
						}
					}
					// Aliasing a published variable, a published return, or
					// a read out of a shared registry map.
					if lv := trackedVar(l); lv != nil {
						if rv := trackedVar(r); rv != nil {
							if ev, ok := published[rv]; ok && publish(lv, s.Pos(), ev.how) {
								changed = true
							}
						}
						if idx, ok := ast.Unparen(r).(*ast.IndexExpr); ok && isSharedRoot(pass, info, idx) {
							if publish(lv, s.Pos(), "read out of a shared registry") {
								changed = true
							}
						}
						if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
							if atomicCall(pass, call, "Load") {
								if publish(lv, s.Pos(), "loaded from an atomic pointer") {
									changed = true
								}
							} else if callee := calleeFunc(pass, call); callee != nil {
								if f := factFor(callee); f != nil && f.ReturnsPublished {
									if publish(lv, s.Pos(), "returned by "+callee.Name()+", which aliases shared memory") {
										changed = true
									}
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				if atomicCall(pass, s, "Store") && len(s.Args) > 0 {
					if v := trackedVar(s.Args[0]); v != nil {
						if publish(v, s.Pos(), "published via atomic store") {
							changed = true
						}
					}
				}
				if callee := calleeFunc(pass, s); callee != nil {
					if f := factFor(callee); f != nil {
						for _, ci := range f.Publishes {
							if v := trackedVar(calleeArg(s, callee, ci)); v != nil {
								if publish(v, s.Pos(), "published via "+callee.Name()) {
									changed = true
								}
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	if len(published) == 0 {
		return
	}

	// Report pass: writes through a published variable after its publish
	// point, and calls handing a published variable to a known mutator.
	report := func(pos token.Pos, v *types.Var, via string) {
		ev := published[v]
		pass.Reportf(pos, "write to %s after it was %s at line %d%s; published snapshots are frozen — build a new one instead",
			v.Name(), ev.how, pass.Fset.Position(ev.pos).Line, via)
	}
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if !isChain(l) {
					continue
				}
				id := rootIdent(l)
				if id == nil {
					continue
				}
				v := varOf(pass, id)
				if v == nil {
					continue
				}
				if ev, ok := published[v]; ok && trackedPtr(v.Type(), pass.ModulePath) && s.Pos() > ev.pos {
					report(s.Pos(), v, "")
				}
			}
		case *ast.IncDecStmt:
			if id := rootIdent(s.X); id != nil && isChain(s.X) {
				if v := varOf(pass, id); v != nil {
					if ev, ok := published[v]; ok && trackedPtr(v.Type(), pass.ModulePath) && s.Pos() > ev.pos {
						report(s.Pos(), v, "")
					}
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass, s)
			if callee == nil {
				return true
			}
			f := factFor(callee)
			if f == nil || len(f.Mutates) == 0 {
				return true
			}
			for _, ci := range f.Mutates {
				arg := calleeArg(s, callee, ci)
				v := trackedVar(arg)
				if v == nil {
					continue
				}
				if ev, ok := published[v]; ok && s.Pos() > ev.pos {
					report(s.Pos(), v, " (via "+callee.FullName()+", which mutates its argument)")
				}
			}
		}
		return true
	})
}
