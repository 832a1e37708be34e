package analysis

import (
	"go/ast"
	"go/types"
)

// Shared type-resolution helpers for the analyzer subpackages.

// CalleeFunc resolves the function or method object invoked by call, or
// nil when the callee is not a named function (built-ins, conversions,
// calls of function-typed values).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// PkgFuncUse reports, for a selector expression like time.Now, the
// package-level function it refers to and that package's import path.
// Method selections and non-function selections return ("", nil).
func PkgFuncUse(info *types.Info, sel *ast.SelectorExpr) (pkgPath string, fn *types.Func) {
	ident, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", nil
	}
	if _, isPkg := info.Uses[ident].(*types.PkgName); !isPkg {
		return "", nil
	}
	fn, ok = info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", nil
	}
	return fn.Pkg().Path(), fn
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

// ErrorResultIndexes returns the positions of error-typed results in sig.
func ErrorResultIndexes(sig *types.Signature) []int {
	var out []int
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if IsErrorType(results.At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// IsMapType reports whether t's core type is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
