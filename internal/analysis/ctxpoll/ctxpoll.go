// Package ctxpoll implements the ctxpoll analyzer: scan entry points
// shaped like corpus.Searcher (methods named TopK/TopKBatch whose
// first parameter is a context.Context) must poll their context —
// pinning the cancellation contract ("ctx polled once per visited
// candidate") structurally, so a refactor cannot silently drop the
// poll from a scan loop.
//
// "Polls" means the function, or any module function it statically
// calls (same package recursively; cross-package via exported facts),
// contains one of: a select with a receive from a chan struct{} (the
// precomputed done-channel idiom), a receive from ctx.Done(), or a
// ctx.Err() call. Functions marked //tasm:ctxpoll are held to the same
// requirement regardless of name. Dynamic calls (interface fan-out,
// as in the shard router's scatter) are not followed; entry points
// that delegate cancellation through an interface carry a
// `//tasm:allow ctxpoll — <reason>` waiver documenting where the poll
// actually lives.
package ctxpoll

import (
	"go/ast"
	"go/token"
	"go/types"

	"tasm/internal/analysis"
)

// Marker opts a function into the check by annotation.
const Marker = "//tasm:ctxpoll"

var Analyzer = &analysis.Analyzer{
	Name:  "ctxpoll",
	Allow: "ctxpoll",
	Doc:   "require Searcher-shaped scan entry points to poll ctx.Done()/ctx.Err()",
	Run:   run,
}

// pollFact marks a function as polling its context (directly or
// transitively); presence is the fact.
type pollFact struct{}

func run(pass *analysis.Pass) error {
	r := &resolver{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		memo:  make(map[*types.Func]bool),
		state: make(map[*types.Func]int),
	}
	type target struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var targets []target
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			r.decls[fn] = fd
			if isSearcherEntry(fn) || analysis.HasMarker(fd.Doc, Marker) {
				targets = append(targets, target{fn: fn, decl: fd})
			}
		}
	}

	for _, t := range targets {
		if !r.polls(t.fn) {
			pass.Reportf(t.decl.Pos(),
				"%s is a scan entry point but neither it nor any statically-reachable callee polls its context (select on a done channel / ctx.Done(), or call ctx.Err()); scans must honor cancellation per candidate",
				t.fn.Name())
		}
	}

	// Export polling summaries for every function so dependent
	// packages' entry points can delegate across package boundaries.
	for fn := range r.decls {
		if r.polls(fn) {
			pass.ExportFact(analysis.FuncKey(fn), pollFact{})
		}
	}
	return nil
}

// isSearcherEntry reports whether fn is a concrete method named
// TopK/TopKBatch taking a context.Context first — the corpus.Searcher
// shape.
func isSearcherEntry(fn *types.Func) bool {
	if fn.Name() != "TopK" && fn.Name() != "TopKBatch" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
		return false
	}
	if sig.Params().Len() == 0 {
		return false
	}
	return isContext(sig.Params().At(0).Type())
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

type resolver struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]bool
	state map[*types.Func]int // 0 unvisited, 1 visiting, 2 done
}

// polls reports whether fn polls its context directly or through a
// statically-resolvable module callee.
func (r *resolver) polls(fn *types.Func) bool {
	switch r.state[fn] {
	case 2:
		return r.memo[fn]
	case 1:
		return false // cycle
	}
	r.state[fn] = 1
	result := false
	if decl := r.decls[fn]; decl != nil {
		result = r.pollsDirect(decl.Body)
		if !result {
			for _, callee := range r.callees(decl.Body) {
				calleePkg := callee.Pkg()
				if calleePkg == nil {
					continue
				}
				if calleePkg.Path() == r.pass.Pkg.Path() {
					if r.decls[callee] != nil && r.polls(callee) {
						result = true
						break
					}
					continue
				}
				if r.pass.InModule(calleePkg.Path()) {
					var f pollFact
					if r.pass.ImportFact(calleePkg.Path(), analysis.FuncKey(callee), &f) {
						result = true
						break
					}
				}
			}
		}
	}
	r.memo[fn] = result
	r.state[fn] = 2
	return result
}

// pollsDirect reports whether the body itself polls: a select
// receiving from a chan struct{}, a receive from ctx.Done(), or a
// ctx.Err() call.
func (r *resolver) pollsDirect(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CommClause:
			if recv := commRecv(n.Comm); recv != nil && r.isDoneChan(recv.X) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && r.isDoneChan(n.X) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" {
				if tv, ok := r.pass.Info.Types[sel.X]; ok && tv.Type != nil && isContext(tv.Type) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// commRecv extracts the receive operation of a select comm clause
// (`case <-ch:` or `case v := <-ch:`), if any.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u
			}
		}
	}
	return nil
}

// isDoneChan reports whether e has type (<-)chan struct{} — the shape
// of ctx.Done() and of the repo's precomputed done channels.
func (r *resolver) isDoneChan(e ast.Expr) bool {
	tv, ok := r.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// callees resolves the statically-dispatched calls in body (including
// inside func literals).
func (r *resolver) callees(body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn *types.Func
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			fn, _ = r.pass.Info.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			if sel, ok := r.pass.Info.Selections[fun]; ok {
				fn, _ = sel.Obj().(*types.Func)
			} else {
				fn, _ = r.pass.Info.Uses[fun.Sel].(*types.Func)
			}
		}
		if fn == nil {
			return true
		}
		fn = fn.Origin()
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return true // dynamic dispatch: not followed
		}
		if !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}
