// Package clockcheck forbids direct use of the wall clock — and, through
// the taint facts engine, indirect use across package boundaries.
//
// Everything in GoWren that needs time must take a vclock.Clock: on the
// virtual clock a single time.Now or time.Sleep reads real wall time into
// a simulation that is supposed to be bit-identical across same-seed runs,
// and a real sleep stalls the cooperative scheduler. The only packages
// allowed to touch the time package's clock are internal/vclock itself
// (it *is* the wrapper) and real-mode cmd/ entry points, which annotate
// their sites with //gowren:allow clockcheck.
//
// Direct sites are reported where they occur. A call to a function in
// another package that *transitively* reaches the wall clock is reported
// at the call site in the package under review, with the full taint chain
// (e.g. "pkg/a.Helper → time.Now") in the message. An allow directive at
// the taint's origin cleanses every caller, so the wrapper packages stay
// quiet without annotating each importer.
package clockcheck

import (
	"go/ast"
	"strings"

	"gowren/internal/analysis"
)

// fixes holds per-function replacement advice for direct wall-clock use.
// Membership in the banned set comes from the facts engine's canonical
// table (analysis.TimeTaint), so the direct check and the interprocedural
// summaries can never disagree about what counts as a violation.
var fixes = map[string]string{
	"Now":       "read simulated time from the injected vclock.Clock",
	"Sleep":     "block through vclock.Clock.Sleep so virtual time can advance",
	"After":     "poll with vclock.Poll or sleep on the injected Clock",
	"AfterFunc": "schedule through the injected vclock.Clock",
	"NewTimer":  "schedule through the injected vclock.Clock",
	"NewTicker": "poll with vclock.Poll on the injected Clock",
	"Tick":      "poll with vclock.Poll on the injected Clock",
	"Since":     "use clock.Now().Sub(t) on the injected Clock",
	"Until":     "compute against Clock.Now instead",
}

// Analyzer is the clockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "clockcheck",
	Doc:  "direct or transitive wall-clock use (time.Now, time.Sleep, ...) outside internal/vclock",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if strings.HasSuffix(pass.Pkg.Path, "internal/vclock") {
		return // the clock substrate itself wraps the time package
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				checkDirect(pass, x)
			case *ast.CallExpr:
				checkTransitive(pass, x)
			}
			return true
		})
	}
}

// checkDirect flags references to the banned time-package functions.
func checkDirect(pass *analysis.Pass, sel *ast.SelectorExpr) {
	pkgPath, fn := analysis.PkgFuncUse(pass.Pkg.Info, sel)
	if pkgPath != "time" || fn == nil {
		return
	}
	if _, bad := analysis.TimeTaint(fn.Name()); !bad {
		return
	}
	fix := fixes[fn.Name()]
	if fix == "" {
		fix = "route time through the injected vclock.Clock"
	}
	pass.Reportf(sel.Pos(), "time.%s bypasses the virtual clock; %s", fn.Name(), fix)
}

// checkTransitive flags calls into other packages whose summaries carry a
// wall-clock taint. Same-package callees are skipped: their origin sites
// are already reported directly, and one finding per package suffices.
func checkTransitive(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg.Types {
		return
	}
	for _, t := range pass.FuncTaints(fn) {
		var verb string
		switch t.Kind {
		case analysis.TaintWallClock:
			verb = "reads"
		case analysis.TaintWallSleep:
			verb = "blocks on"
		default:
			continue
		}
		chain := append([]string{analysis.FuncLabel(fn)}, t.Chain...)
		pass.ReportTaint(call.Pos(), chain,
			"call to %s transitively %s the wall clock (%s); plumb the injected vclock.Clock through the callee or //gowren:allow clockcheck at the origin",
			analysis.FuncLabel(fn), verb, strings.Join(chain, " → "))
	}
}
