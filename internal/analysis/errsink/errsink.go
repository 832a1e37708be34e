// Package errsink flags discarded errors from the storage, platform and
// retry layers.
//
// Calls into internal/cos, internal/faas and internal/retry are exactly
// the calls that fail under chaos plans — lost requests, throttles,
// exhausted retries. An error from one of them that is dropped with `_`
// or a bare expression statement turns an injected fault into silent
// corruption (a swallowed sweepStatuses error of precisely this shape was
// once found and fixed by hand). This analyzer makes that class of bug a
// lint failure.
//
// The facts engine extends the reach across package boundaries: a helper
// that swallows a storage error internally taints every caller, and the
// call site in the package under review is reported with the chain down
// to the discarding function. An //gowren:allow errsink on the discard
// itself (the origin) cleanses all callers.
package errsink

import (
	"go/ast"
	"go/types"
	"strings"

	"gowren/internal/analysis"
)

// Analyzer is the errsink analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errsink",
	Doc:  "discarded error results from internal/cos, internal/faas, internal/retry calls",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					reportDiscard(pass, call, "a bare statement")
				}
			case *ast.GoStmt:
				reportDiscard(pass, stmt.Call, "go")
			case *ast.DeferStmt:
				reportDiscard(pass, stmt.Call, "defer")
			case *ast.AssignStmt:
				checkAssign(pass, stmt)
			case *ast.CallExpr:
				checkTransitive(pass, stmt)
			}
			return true
		})
	}
}

// checkTransitive flags calls into other packages whose summaries say the
// callee internally discards a failure-layer error.
func checkTransitive(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg.Types {
		return
	}
	for _, t := range pass.FuncTaints(fn) {
		if t.Kind != analysis.TaintErrDiscard {
			continue
		}
		chain := append([]string{analysis.FuncLabel(fn)}, t.Chain...)
		pass.ReportTaint(call.Pos(), chain,
			"call to %s transitively discards a failure-layer error (%s); handle the error in the callee or //gowren:allow errsink at the origin",
			analysis.FuncLabel(fn), strings.Join(chain, " → "))
	}
}

// reportDiscard flags call if its callee belongs to a target package and
// returns an error that the surrounding context throws away entirely.
func reportDiscard(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := targetCallee(pass.Pkg.Info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	if len(analysis.ErrorResultIndexes(sig)) == 0 {
		return
	}
	pass.Reportf(call.Pos(), "error from %s is discarded by %s; handle it or //gowren:allow errsink with a justification",
		calleeLabel(fn), how)
}

// checkAssign flags `_`-discarded error positions in assignments whose
// right-hand side is a single call into a target package.
func checkAssign(pass *analysis.Pass, stmt *ast.AssignStmt) {
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := targetCallee(pass.Pkg.Info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	errIdxs := analysis.ErrorResultIndexes(sig)
	if len(errIdxs) == 0 || len(stmt.Lhs) != sig.Results().Len() {
		return
	}
	for _, i := range errIdxs {
		if ident, ok := stmt.Lhs[i].(*ast.Ident); ok && ident.Name == "_" {
			pass.Reportf(ident.Pos(), "error from %s is discarded with _; handle it or //gowren:allow errsink with a justification",
				calleeLabel(fn))
		}
	}
}

// targetCallee resolves call's callee and returns it only when it is
// defined in one of the failure-bearing packages (analysis.ErrSinkTargets,
// the same table the facts engine's origin detection uses).
func targetCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !analysis.IsErrSinkTarget(fn.Pkg().Path()) {
		return nil
	}
	return fn
}

// calleeLabel renders pkg.Func or pkg.Type.Method for diagnostics.
func calleeLabel(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkg := fn.Pkg().Name()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
