// Package vclockescape flags goroutines spawned from vclock-driven code
// whose bodies transitively block on wall time.
//
// This is the bug class no single-package, single-function check can
// express: a function advancing the simulation on the virtual clock spawns
// a helper goroutine, and somewhere down the helper's call chain — often
// in another package — sits a time.Sleep. The goroutine now blocks on the
// host's wall clock while the rest of the simulation runs on virtual time:
// same-seed runs stop being bit-identical, and on a fast virtual clock the
// sleeper simply never wakes inside the simulated window. The analyzer is
// facts-native: the spawned body's taint summary comes from the
// interprocedural facts engine, so the sleep may hide arbitrarily many
// calls (and packages) away.
//
// "vclock-driven" means the enclosing function mentions the vclock package
// at all — takes a vclock.Clock or calls vclock.Poll.
// Code that never touches the virtual clock (real-mode main loops, test
// scaffolding outside the suite's scope) is not this analyzer's business;
// direct wall-clock use there is still clockcheck's.
//
// Suppress at the spawn site with //gowren:allow vclockescape, or cleanse
// at the origin with //gowren:allow clockcheck on the wall-time sleep
// itself (which silences the whole chain for every caller).
package vclockescape

import (
	"go/ast"
	"go/types"
	"strings"

	"gowren/internal/analysis"
)

// Analyzer is the vclockescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "vclockescape",
	Doc:  "goroutines spawned from vclock-driven code that transitively block on wall time",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if strings.HasSuffix(pass.Pkg.Path, "internal/vclock") {
		return // the substrate's own goroutines implement the clocks
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !usesVClock(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					checkSpawn(pass, gs)
				}
				return true
			})
		}
	}
}

// usesVClock reports whether the function mentions the vclock package —
// an object defined there, or the package name itself (covering
// vclock.Clock parameters and vclock.Poll calls).
func usesVClock(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[ident]
		if obj == nil {
			obj = pass.Pkg.Info.Defs[ident]
		}
		switch o := obj.(type) {
		case *types.PkgName:
			if strings.HasSuffix(o.Imported().Path(), "internal/vclock") {
				found = true
			}
		case nil:
		default:
			if o.Pkg() != nil && strings.HasSuffix(o.Pkg().Path(), "internal/vclock") {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSpawn inspects one go statement: a function-literal body is scanned
// in place through the facts engine, a named callee is looked up in its
// package's serialized summary. Only wall-sleep taints fire — a goroutine
// that merely reads time.Now skews data, which clockcheck already reports,
// but one that blocks on wall time deadlocks the virtual schedule.
func checkSpawn(pass *analysis.Pass, gs *ast.GoStmt) {
	var taints []analysis.Taint
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		taints = pass.NodeTaints(fun.Body)
	default:
		if fn := analysis.CalleeFunc(pass.Pkg.Info, gs.Call); fn != nil {
			for _, t := range pass.FuncTaints(fn) {
				t.Chain = append([]string{analysis.FuncLabel(fn)}, t.Chain...)
				taints = append(taints, t)
			}
		}
	}
	for _, t := range taints {
		if t.Kind != analysis.TaintWallSleep {
			continue
		}
		pass.ReportTaint(gs.Pos(), t.Chain,
			"goroutine spawned from vclock-driven code blocks on the wall clock (%s); sleep on the injected vclock.Clock so virtual time can advance",
			strings.Join(t.Chain, " → "))
	}
}
