package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxguard enforces cancellable blocking in the serving path: inside
// internal/serve, internal/collect, internal/pipe, internal/shard and
// internal/analysis, every operation
// that can block forever — channel sends/receives outside a select, range
// over a channel, a select with neither a default nor a cancellation
// case, time.Sleep, context-less dials — is a finding; the sanctioned
// forms are selects carrying a struct{}-channel receive (ctx.Done(), stop
// and done channels) or a default, and ctx-taking APIs (DialContext).
// Cross-package: every module function containing an unguarded blocking
// op without accepting a context exports a blocking fact, and calls from
// the guarded trio into such functions are findings too — so the
// serve loop cannot launder an uncancellable sleep through a helper
// package.

// ctxBlockingFact marks a module function that blocks without accepting a
// context; Op describes the first blocking operation found.
type ctxBlockingFact struct {
	Op string
}

// CtxGuard is the ctxguard analyzer.
var CtxGuard = &Analyzer{
	Name: "ctxguard",
	Doc:  "blocking operations in internal/serve, internal/collect, internal/pipe, internal/shard and internal/analysis must be select-guarded with a cancellation case or use ctx-taking APIs",
	Run:  runCtxGuard,
}

// ctxGuardedPkgs are the module subtrees the local rules apply to.
var ctxGuardedPkgs = []string{"internal/serve", "internal/collect", "internal/pipe", "internal/shard", "internal/analysis"}

func inCtxGuardedPkg(pkgPath, module string) bool {
	for _, sub := range ctxGuardedPkgs {
		if underModule(pkgPath, module, sub) {
			return true
		}
	}
	return false
}

// blockingOp is one potentially forever-blocking operation in a function.
type blockingOp struct {
	pos token.Pos
	msg string
}

func runCtxGuard(pass *Pass) {
	if pass.Pkg == nil || pass.Info == nil {
		return
	}
	inScope := inCtxGuardedPkg(pass.PkgPath, pass.ModulePath)

	type fnInfo struct {
		fn      *types.Func
		ops     []blockingOp  // direct unguarded blocking ops
		callees []*types.Func // module-internal callees, for propagation
		callPos map[*types.Func]token.Pos
		hasCtx  bool
	}
	var fns []*fnInfo

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			info := &fnInfo{fn: obj, callPos: map[*types.Func]token.Pos{}}
			info.hasCtx = funcTakesContext(obj)
			collectBlockingOps(pass, fd.Body, info.hasCtx, &info.ops)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				path := callee.Pkg().Path()
				if path != pass.ModulePath && !strings.HasPrefix(path, pass.ModulePath+"/") {
					return true
				}
				if _, seen := info.callPos[callee]; !seen {
					info.callees = append(info.callees, callee)
					info.callPos[callee] = call.Pos()
				}
				return true
			})
			fns = append(fns, info)
		}
	}

	// blockingFactFor resolves a callee's fact: intra-package from the
	// summaries being built, cross-package from the store.
	local := map[*types.Func]*ctxBlockingFact{}
	blockingFactFor := func(callee *types.Func) *ctxBlockingFact {
		if f, ok := local[callee]; ok {
			return f
		}
		var f ctxBlockingFact
		if pass.ImportObjectFact(callee, &f) {
			return &f
		}
		return nil
	}

	// Seed the summaries with direct ops, then propagate through
	// context-less intra-package calls to a bounded fixpoint.
	for _, info := range fns {
		if info.fn != nil && !info.hasCtx && len(info.ops) > 0 {
			local[info.fn] = &ctxBlockingFact{Op: info.ops[0].msg}
		}
	}
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, info := range fns {
			if info.fn == nil || info.hasCtx || local[info.fn] != nil {
				continue
			}
			for _, callee := range info.callees {
				if funcTakesContext(callee) {
					continue
				}
				if f := blockingFactFor(callee); f != nil {
					local[info.fn] = &ctxBlockingFact{Op: fmt.Sprintf("call to %s (%s)", callee.FullName(), f.Op)}
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	for fn, f := range local {
		pass.ExportObjectFact(fn, *f)
	}

	if !inScope {
		return
	}
	// Local findings: direct ops, plus calls that leave the guarded trio
	// into a blocking context-less function (in-trio callees report their
	// own ops, so those calls are not doubled).
	for _, info := range fns {
		for _, op := range info.ops {
			pass.Reportf(op.pos, "%s", op.msg)
		}
		for _, callee := range info.callees {
			if funcTakesContext(callee) || inCtxGuardedPkg(callee.Pkg().Path(), pass.ModulePath) {
				continue
			}
			if f := blockingFactFor(callee); f != nil {
				pass.Reportf(info.callPos[callee],
					"calls %s, which blocks without accepting a context (%s); plumb a ctx through or guard the call", callee.FullName(), f.Op)
			}
		}
	}
}

// funcTakesContext reports whether any parameter is context.Context.
func funcTakesContext(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if namedType(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// collectBlockingOps gathers the unguarded blocking operations in body.
// hasCtx softens nothing locally — a sleep in a ctx-taking function still
// ignores the ctx — it only matters for the exported fact.
func collectBlockingOps(pass *Pass, body *ast.BlockStmt, hasCtx bool, out *[]blockingOp) {
	// Comm operations of select statements are judged by the select rule,
	// not the bare-send/receive rules.
	selectComm := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			selectComm[comm.Comm] = true
			switch s := comm.Comm.(type) {
			case *ast.ExprStmt:
				selectComm[ast.Unparen(s.X)] = true
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					selectComm[ast.Unparen(s.Rhs[0])] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			if !selectHasEscape(pass, s) {
				*out = append(*out, blockingOp{s.Pos(), "select has neither a default nor a cancellation case (a struct{}-channel receive like ctx.Done()); it can block forever"})
			}
		case *ast.SendStmt:
			if !selectComm[s] {
				*out = append(*out, blockingOp{s.Pos(), "channel send outside a select; wrap it in a select with ctx.Done() or a default case"})
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && !selectComm[s] && !isRecvOnlyStructChan(pass, s.X) {
				*out = append(*out, blockingOp{s.Pos(), "channel receive outside a select; wrap it in a select with ctx.Done() or a default case"})
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					*out = append(*out, blockingOp{s.Pos(), "range over a channel blocks until the channel closes; drain it with a select on ctx.Done()"})
				}
			}
		case *ast.CallExpr:
			if msg := blockingCallMsg(pass, s); msg != "" {
				*out = append(*out, blockingOp{s.Pos(), msg})
			}
		}
		return true
	})
}

// selectHasEscape reports whether the select has a default case or a
// cancellation-style receive: a case receiving from a struct{}-element
// channel (ctx.Done(), stop/done channels).
func selectHasEscape(pass *Pass, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			return true // default case
		}
		var recv ast.Expr
		switch s := comm.Comm.(type) {
		case *ast.ExprStmt:
			recv = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv = s.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if isStructChan(pass.TypeOf(ue.X)) {
			return true
		}
	}
	return false
}

// isStructChan reports whether t is a channel of empty struct elements.
func isStructChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isRecvOnlyStructChan reports whether e is a receive-only struct{}
// channel — blocking on one (ctx.Done() itself) is the cancellation wait,
// not a hang.
func isRecvOnlyStructChan(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() != types.RecvOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// blockingCallMsg classifies context-less std blocking calls.
func blockingCallMsg(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep blocks without cancellation; select on ctx.Done() and a timer instead"
		}
	case "net":
		if strings.HasPrefix(fn.Name(), "Dial") && !strings.HasSuffix(fn.Name(), "Context") {
			return fmt.Sprintf("net %s dials without a context; use (*net.Dialer).DialContext", fn.Name())
		}
	}
	return ""
}
