// Package poolreset implements the poolreset analyzer: a value taken
// from a sync.Pool whose type has a Reset method must have Reset
// called on it before first use, in the same function. Pooled values
// carry the previous user's state; the repo's scratch types
// (core.ScanScratch, docstore.Reader) define Reset as their
// reuse contract (PR 9), and skipping it silently corrupts a
// scan with stale bounds.
//
// The check is lexical and function-local: the Get result must be
// type-asserted to a type whose method set includes Reset, and a
// Reset call on the same variable must appear later in the enclosing
// function. Constructors that Get+Reset internally satisfy the check
// at their own Get site, so callers of such constructors are clean by
// construction. A Get whose result type has no Reset method is out of
// scope, as is a Get passed somewhere without a type assertion.
//
// Findings are waived with `//tasm:allow poolreset — <reason>` (e.g.
// the callee on the next line re-initializes every field itself).
package poolreset

import (
	"go/ast"
	"go/token"
	"go/types"

	"tasm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:  "poolreset",
	Allow: "poolreset",
	Doc:   "require Reset before first use of sync.Pool values whose type has a Reset method",
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Collect pool.Get() calls asserted to a Reset-bearing type, with
	// the variable each is assigned to.
	type getSite struct {
		pos token.Pos
		typ types.Type
		obj types.Object // nil when the asserted value is used inline
	}
	var gets []getSite

	ast.Inspect(body, func(n ast.Node) bool {
		ta, ok := n.(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil {
			return true
		}
		call, ok := ast.Unparen(ta.X).(*ast.CallExpr)
		if !ok || !isPoolGet(pass, call) {
			return true
		}
		tv, ok := pass.Info.Types[ta]
		if !ok || tv.Type == nil || !hasReset(tv.Type, pass.Pkg) {
			return true
		}
		gets = append(gets, getSite{pos: call.Pos(), typ: tv.Type, obj: assignedTo(pass, body, ta)})
		return true
	})

	if len(gets) == 0 {
		return
	}

	// A later x.Reset(...) call on the same variable discharges the
	// obligation.
	reset := make(map[types.Object]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Reset" {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if prev, ok := reset[obj]; !ok || call.Pos() > prev {
			reset[obj] = call.Pos()
		}
		return true
	})

	for _, g := range gets {
		if g.obj != nil {
			if pos, ok := reset[g.obj]; ok && pos > g.pos {
				continue
			}
		}
		pass.Reportf(g.pos,
			"%s from sync.Pool has a Reset method that is never called before use; call Reset after Get or return it through a constructor that does",
			types.TypeString(g.typ, types.RelativeTo(pass.Pkg)))
	}
}

// isPoolGet reports whether call is X.Get() on a sync.Pool (value,
// pointer, or a field of either).
func isPoolGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// hasReset reports whether t's method set (or its pointer's) includes
// a Reset method.
func hasReset(t types.Type, from *types.Package) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, from, "Reset")
	_, ok := obj.(*types.Func)
	return ok
}

// assignedTo finds the variable a type assertion's value is bound to:
// `x := pool.Get().(*T)` or `x = pool.Get().(*T)`. Returns nil when
// the value is used inline.
func assignedTo(pass *analysis.Pass, body *ast.BlockStmt, ta *ast.TypeAssertExpr) types.Object {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		if ast.Unparen(as.Rhs[0]) != ta {
			return true
		}
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			if o := pass.Info.Defs[id]; o != nil {
				obj = o
			} else if o := pass.Info.Uses[id]; o != nil {
				obj = o
			}
		}
		return false
	})
	return obj
}
