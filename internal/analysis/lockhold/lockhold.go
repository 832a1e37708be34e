// Package lockhold flags mutexes held across blocking calls.
//
// On the virtual clock one loop runs every task of a simulation, one at a
// time, and a blocking primitive (Clock.Sleep, vclock.Poll, Event.Wait)
// parks the current task and hands the loop to the next. A sync.Mutex
// held across such a call is a certain hang: the next task that locks it
// blocks the loop itself, so no task runs again and virtual time never
// advances. The watchdog (vclock.Virtual.StartWatchdog) names the blocked
// task, but only at run time; this check finds the lock in the source. It
// also flags a lock held across a channel operation, which blocks the
// loop the same way. The rule: collect state under the lock, release, then
// block.
//
// The analysis is an intra-function heuristic: it tracks Lock/Unlock
// pairs through straight-line code and into nested control flow, treats
// a deferred Unlock as holding until function exit, and does not follow
// calls or share state across function literals.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gowren/internal/analysis"
)

// Analyzer is the lockhold analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "sync.Mutex held across a blocking call (clock sleep/wait/poll, channel op)",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		// Every function body — declarations and literals — is checked
		// independently; held-lock state does not flow across closures.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkList(pass, fn.Body.List, held{})
				}
			case *ast.FuncLit:
				checkList(pass, fn.Body.List, held{})
			}
			return true
		})
	}
}

// held maps a rendered mutex expression ("e.mu") to the position of the
// Lock call that acquired it.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// names renders the held set deterministically for diagnostics.
func (h held) names() string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// checkList walks one statement list, threading lock state through
// straight-line statements and branching with copies.
func checkList(pass *analysis.Pass, list []ast.Stmt, h held) {
	for _, s := range list {
		checkStmt(pass, s, h)
	}
}

func checkStmt(pass *analysis.Pass, s ast.Stmt, h held) {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		if call, ok := stmt.X.(*ast.CallExpr); ok {
			if mutex, kind := mutexOp(pass.Pkg.Info, call); kind != "" {
				switch kind {
				case "lock":
					h[mutex] = call.Pos()
				case "unlock":
					delete(h, mutex)
				}
				return
			}
		}
		scanExpr(pass, stmt.X, h)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held for the remainder of the
		// function, which is exactly the window we must scan; leave state
		// untouched. A deferred blocking call runs after the body, outside
		// any scope we track — ignore it.
		if _, kind := mutexOp(pass.Pkg.Info, stmt.Call); kind != "" {
			return
		}
	case *ast.GoStmt:
		// The spawned goroutine does not run under the caller's locks;
		// its body (a FuncLit) is checked independently by run.
	case *ast.AssignStmt:
		for _, e := range stmt.Rhs {
			scanExpr(pass, e, h)
		}
		for _, e := range stmt.Lhs {
			scanExpr(pass, e, h)
		}
	case *ast.ReturnStmt:
		for _, e := range stmt.Results {
			scanExpr(pass, e, h)
		}
	case *ast.SendStmt:
		if len(h) > 0 {
			pass.Reportf(stmt.Arrow, "channel send while holding %s; release the lock before blocking", h.names())
		}
		scanExpr(pass, stmt.Value, h)
	case *ast.IfStmt:
		if stmt.Init != nil {
			checkStmt(pass, stmt.Init, h)
		}
		scanExpr(pass, stmt.Cond, h)
		checkList(pass, stmt.Body.List, h.clone())
		if stmt.Else != nil {
			checkStmt(pass, stmt.Else, h.clone())
		}
	case *ast.ForStmt:
		if stmt.Init != nil {
			checkStmt(pass, stmt.Init, h)
		}
		if stmt.Cond != nil {
			scanExpr(pass, stmt.Cond, h)
		}
		checkList(pass, stmt.Body.List, h.clone())
	case *ast.RangeStmt:
		scanExpr(pass, stmt.X, h)
		checkList(pass, stmt.Body.List, h.clone())
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			checkStmt(pass, stmt.Init, h)
		}
		if stmt.Tag != nil {
			scanExpr(pass, stmt.Tag, h)
		}
		for _, c := range stmt.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				checkList(pass, cc.Body, h.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range stmt.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				checkList(pass, cc.Body, h.clone())
			}
		}
	case *ast.SelectStmt:
		if len(h) > 0 && !hasDefault(stmt) {
			pass.Reportf(stmt.Select, "select blocks while holding %s; release the lock before blocking", h.names())
		}
		for _, c := range stmt.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				checkList(pass, cc.Body, h.clone())
			}
		}
	case *ast.BlockStmt:
		checkList(pass, stmt.List, h)
	case *ast.LabeledStmt:
		checkStmt(pass, stmt.Stmt, h)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						scanExpr(pass, e, h)
					}
				}
			}
		}
	}
}

// scanExpr reports blocking calls and channel receives inside e while any
// lock is held. Function literals are skipped: they execute later, under
// their own (separately checked) discipline.
func scanExpr(pass *analysis.Pass, e ast.Expr, h held) {
	if e == nil || len(h) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.OpPos, "channel receive while holding %s; release the lock before blocking", h.names())
			}
		case *ast.CallExpr:
			if name, ok := blockingCall(pass.Pkg.Info, x); ok {
				pass.Reportf(x.Pos(), "blocking call %s while holding %s; release the lock before blocking", name, h.names())
			}
		}
		return true
	})
}

// mutexOp classifies call as a lock or unlock of a sync mutex, returning
// the rendered receiver expression.
func mutexOp(info *types.Info, call *ast.CallExpr) (mutex, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock"
	}
	return "", ""
}

// blockingCall reports whether call parks the task on the virtual clock
// (or the real one): clock sleeps, waits, polls, and waitgroup waits.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case (path == "gowren/internal/vclock" || strings.HasSuffix(path, "internal/vclock")) &&
		(name == "Sleep" || name == "Wait" || name == "Poll"):
		return "vclock." + name, true
	case path == "sync" && name == "Wait":
		return "sync." + name, true
	}
	return "", false
}

// hasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func hasDefault(stmt *ast.SelectStmt) bool {
	for _, c := range stmt.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
