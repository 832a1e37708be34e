package analysis

// Interprocedural taint facts.
//
// Every analyzer used to be single-package: a helper that wraps time.Now in
// one package defeated clockcheck in every other package. This file closes
// that hole with per-function taint summaries — does a function
// (transitively) read the wall clock, block on wall time, draw from the
// global rand source, or discard a failure-layer error — computed as a
// bottom-up fixed point over each package's call graph. Run schedules
// packages in import-topological order and serializes each package's
// summaries into a FactDB, so a dependent package consults its callees'
// facts the way the type-checker consults export data: through the encoded
// form, never through shared ASTs.
//
// Suppression is defined at the taint origin: a //gowren:allow directive
// that silences the origin diagnostic (the time.Now call, the global rand
// draw, the discarded error) also cleanses the taint, so callers — in the
// same package or any importer — stay quiet. An allow on an intermediate
// call site likewise stops propagation upward from that site. The packages
// under internal/vclock are exempt from clock taints wholesale: they *are*
// the sanctioned wrapper around the time package.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TaintKind classifies one flavor of impurity a function can carry.
type TaintKind string

const (
	// TaintWallClock marks functions that transitively read wall time
	// (time.Now, time.Since, time.Until).
	TaintWallClock TaintKind = "wallclock"
	// TaintWallSleep marks functions that transitively block on wall time
	// (time.Sleep, time.After, timers, tickers).
	TaintWallSleep TaintKind = "wallsleep"
	// TaintGlobalRand marks functions that transitively draw from the
	// process-global, auto-seeded math/rand source.
	TaintGlobalRand TaintKind = "globalrand"
	// TaintErrDiscard marks functions that internally discard an error
	// from the failure-bearing layers (internal/cos, internal/faas,
	// internal/retry).
	TaintErrDiscard TaintKind = "errdiscard"
)

// CheckFor maps a taint kind to the analyzer whose //gowren:allow
// directive governs it: an allow for that check at the taint's origin
// cleanses the taint for every caller.
func CheckFor(kind TaintKind) string {
	switch kind {
	case TaintWallClock, TaintWallSleep:
		return "clockcheck"
	case TaintGlobalRand:
		return "randcheck"
	case TaintErrDiscard:
		return "errsink"
	}
	return string(kind)
}

// timeTaints maps time-package function names to the taint kind their use
// induces. This is the canonical membership table; clockcheck's per-name
// fix messages key off the same names.
var timeTaints = map[string]TaintKind{
	"Now":       TaintWallClock,
	"Since":     TaintWallClock,
	"Until":     TaintWallClock,
	"Sleep":     TaintWallSleep,
	"After":     TaintWallSleep,
	"AfterFunc": TaintWallSleep,
	"NewTimer":  TaintWallSleep,
	"NewTicker": TaintWallSleep,
	"Tick":      TaintWallSleep,
}

// TimeTaint reports the taint kind induced by the named time-package
// function, if any. Constructors of pure values (time.Date, time.Parse,
// Duration arithmetic) are absent.
func TimeTaint(name string) (TaintKind, bool) {
	k, ok := timeTaints[name]
	return k, ok
}

// globalRandFuncs lists the math/rand (and math/rand/v2) package-level
// functions that draw from the shared global source. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) are deliberately absent.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true,
}

// GlobalRandFunc reports whether the named math/rand package-level
// function draws from the global auto-seeded source.
func GlobalRandFunc(name string) bool { return globalRandFuncs[name] }

// ErrSinkTargets are the failure-bearing layers whose errors must not be
// dropped. Matching is by import-path suffix so the check also applies to
// fixture stand-ins under testdata.
var ErrSinkTargets = []string{"internal/cos", "internal/faas", "internal/retry"}

// IsErrSinkTarget reports whether path names one of the failure-bearing
// layers.
func IsErrSinkTarget(path string) bool {
	for _, t := range ErrSinkTargets {
		if path == t || strings.HasSuffix(path, "/"+t) || strings.HasSuffix(path, t) {
			return true
		}
	}
	return false
}

// vclockExempt reports whether pkgPath is the clock substrate itself,
// which wraps the time package on purpose and carries no clock taints.
func vclockExempt(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/vclock")
}

// Taint is one impurity a function summary carries. Chain is the call
// path from the summarized function's direct callee down to the intrinsic
// origin, e.g. ["pkg/a.Helper", "time.Now"]; rendering it after the
// callee's own label yields the full story a diagnostic tells:
// "pkg/b.Wrapper → pkg/a.Helper → time.Now".
type Taint struct {
	Kind  TaintKind `json:"kind"`
	Chain []string  `json:"chain"`
}

// FuncFacts is the serialized taint summary of one function.
type FuncFacts struct {
	Taints []Taint `json:"taints"`
}

// PackageFacts is the serialized taint summary of one package: every
// function that carries at least one taint, keyed by FuncLabel.
type PackageFacts struct {
	Path  string                `json:"path"`
	Funcs map[string]*FuncFacts `json:"funcs"`
}

// FuncLabel renders the stable cross-package key for a function object:
// "import/path.Func" for package-level functions, "import/path.Type.Method"
// for methods. The defining package and every importer compute the same
// label (the importer from export data), so labels key the FactDB.
func FuncLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	prefix := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return prefix + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return prefix + "." + fn.Name()
}

// FactDB holds the serialized facts of every package processed so far,
// keyed by import path. Dependents read summaries back through the
// encoded form — the same contract as export data — which is also what
// gowren-vet -facts dumps and the determinism gate diffs.
type FactDB struct {
	encoded map[string][]byte
	decoded map[string]*PackageFacts
}

// NewFactDB returns an empty facts database.
func NewFactDB() *FactDB {
	return &FactDB{encoded: map[string][]byte{}, decoded: map[string]*PackageFacts{}}
}

// Add serializes pf into the database. Canonical form: encoding/json with
// sorted object keys, taints sorted by kind then chain.
func (db *FactDB) Add(pf *PackageFacts) error {
	data, err := json.Marshal(pf)
	if err != nil {
		return fmt.Errorf("analysis: encode facts for %s: %w", pf.Path, err)
	}
	db.encoded[pf.Path] = data
	return nil
}

// facts decodes (and memoizes) the summary for path, or nil when the
// package was not analyzed (stdlib, out-of-set dependencies).
func (db *FactDB) facts(path string) *PackageFacts {
	if pf, ok := db.decoded[path]; ok {
		return pf
	}
	data, ok := db.encoded[path]
	if !ok {
		return nil
	}
	pf := &PackageFacts{}
	if err := json.Unmarshal(data, pf); err != nil {
		return nil
	}
	db.decoded[path] = pf
	return pf
}

// FuncTaints returns fn's taint summary from the serialized facts, or nil
// when fn's package was not analyzed or fn is pure.
func (db *FactDB) FuncTaints(fn *types.Func) []Taint {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf := db.facts(fn.Pkg().Path())
	if pf == nil {
		return nil
	}
	ff := pf.Funcs[FuncLabel(fn)]
	if ff == nil {
		return nil
	}
	return ff.Taints
}

// chainLess orders chains by length then lexicographically — the metric
// the fixed point minimizes, which both guarantees termination through
// recursion cycles and makes the chosen representative chain
// deterministic regardless of propagation order.
func chainLess(a, b []string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// mergeTaint folds cand into the per-function summary, keeping the best
// (shortest, then lexicographically smallest) chain per kind. Reports
// whether the summary changed.
func mergeTaint(sum map[TaintKind]Taint, cand Taint) bool {
	existing, ok := sum[cand.Kind]
	if ok && !chainLess(cand.Chain, existing.Chain) {
		return false
	}
	sum[cand.Kind] = cand
	return true
}

// callEdge is one same-package call site recorded during the base scan;
// taints flow caller-ward across it during the fixed point unless the
// site carries a matching //gowren:allow.
type callEdge struct {
	callee *types.Func
	pos    token.Position
}

// taintScan walks one function body (or any subtree) collecting intrinsic
// taint origins and, depending on mode, either same-package call edges
// (summary construction) or fully-resolved taints for same-package callees
// via the FactDB (analyzer-time NodeTaints).
type taintScan struct {
	pkg     *Package
	allowed allowSet
	db      *FactDB
	// resolveLocal: true to look same-package callees up in db (facts
	// final); false to record them as edges for the fixed point.
	resolveLocal bool

	sum   map[TaintKind]Taint
	edges []callEdge
}

func (s *taintScan) pos(p token.Pos) token.Position { return s.pkg.Fset.Position(p) }

func (s *taintScan) cleansed(p token.Pos, kind TaintKind) bool {
	return s.allowed.allowsAt(s.pos(p), CheckFor(kind))
}

func (s *taintScan) add(p token.Pos, kind TaintKind, chain ...string) {
	if s.cleansed(p, kind) {
		return
	}
	mergeTaint(s.sum, Taint{Kind: kind, Chain: chain})
}

// inherit folds a callee's taints into the scan at call position p,
// prepending the callee's label to each chain.
func (s *taintScan) inherit(p token.Pos, fn *types.Func, taints []Taint) {
	for _, t := range taints {
		if s.cleansed(p, t.Kind) {
			continue
		}
		chain := append([]string{FuncLabel(fn)}, t.Chain...)
		mergeTaint(s.sum, Taint{Kind: t.Kind, Chain: chain})
	}
}

func (s *taintScan) walk(node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			s.scanIntrinsic(x)
		case *ast.CallExpr:
			s.scanCall(x)
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				s.scanDiscard(call, call.Pos())
			}
		case *ast.GoStmt:
			s.scanDiscard(x.Call, x.Call.Pos())
		case *ast.DeferStmt:
			s.scanDiscard(x.Call, x.Call.Pos())
		case *ast.AssignStmt:
			s.scanAssignDiscard(x)
		}
		return true
	})
}

// scanIntrinsic records wall-clock and global-rand origins: references to
// the banned time and math/rand package-level functions.
func (s *taintScan) scanIntrinsic(sel *ast.SelectorExpr) {
	pkgPath, fn := PkgFuncUse(s.pkg.Info, sel)
	if fn == nil {
		return
	}
	switch pkgPath {
	case "time":
		if vclockExempt(s.pkg.Path) {
			return
		}
		if kind, ok := timeTaints[fn.Name()]; ok {
			s.add(sel.Pos(), kind, "time."+fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			s.add(sel.Pos(), TaintGlobalRand, pkgPath+"."+fn.Name())
		}
	}
}

// scanCall propagates callee summaries: same-package callees become fixed
// point edges (or FactDB lookups in resolveLocal mode), cross-package
// callees are consulted through their serialized facts.
func (s *taintScan) scanCall(call *ast.CallExpr) {
	fn := CalleeFunc(s.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg() == s.pkg.Types && !s.resolveLocal {
		s.edges = append(s.edges, callEdge{callee: fn, pos: s.pos(call.Pos())})
		return
	}
	s.inherit(call.Pos(), fn, s.db.FuncTaints(fn))
}

// scanDiscard records an errdiscard origin for a bare/go/defer call into a
// failure-bearing layer whose error vanishes entirely.
func (s *taintScan) scanDiscard(call *ast.CallExpr, at token.Pos) {
	fn := errSinkCallee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	s.add(at, TaintErrDiscard, FuncLabel(fn)+" (error discarded)")
}

// scanAssignDiscard records errdiscard origins for `_`-discarded error
// positions, mirroring errsink's assignment rule.
func (s *taintScan) scanAssignDiscard(stmt *ast.AssignStmt) {
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := errSinkCallee(s.pkg.Info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	errIdxs := ErrorResultIndexes(sig)
	if len(errIdxs) == 0 || len(stmt.Lhs) != sig.Results().Len() {
		return
	}
	for _, i := range errIdxs {
		if ident, ok := stmt.Lhs[i].(*ast.Ident); ok && ident.Name == "_" {
			s.add(ident.Pos(), TaintErrDiscard, FuncLabel(fn)+" (error discarded)")
		}
	}
}

// errSinkCallee resolves call's callee when it is defined in a
// failure-bearing layer and returns at least one error. Shared by the
// facts engine and the errsink analyzer so origin detection and direct
// diagnostics can never drift apart.
func errSinkCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !IsErrSinkTarget(fn.Pkg().Path()) {
		return nil
	}
	if len(ErrorResultIndexes(fn.Type().(*types.Signature))) == 0 {
		return nil
	}
	return fn
}

// computeFacts builds pkg's taint summaries as a bottom-up fixed point
// over the package call graph, consulting db for already-summarized
// dependencies. The allow set cleanses taints at their origin.
func computeFacts(pkg *Package, db *FactDB, allowed allowSet) *PackageFacts {
	pf := &PackageFacts{Path: pkg.Path, Funcs: map[string]*FuncFacts{}}
	if pkg.Info == nil || pkg.Types == nil {
		return pf
	}
	sums := map[*types.Func]map[TaintKind]Taint{}
	edges := map[*types.Func][]callEdge{}
	var fns []*types.Func
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			scan := &taintScan{pkg: pkg, allowed: allowed, db: db, sum: map[TaintKind]Taint{}}
			scan.walk(fd.Body)
			sums[obj] = scan.sum
			edges[obj] = scan.edges
			fns = append(fns, obj)
		}
	}
	// Fixed point: propagate along same-package edges until stable. The
	// merge keeps the minimum chain per kind, so the result is independent
	// of iteration order and the loop terminates even through recursion.
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			for _, e := range edges[f] {
				calleeSum := sums[e.callee]
				if calleeSum == nil {
					continue
				}
				for _, t := range sortedTaints(calleeSum) {
					if allowed.allowsAt(e.pos, CheckFor(t.Kind)) {
						continue
					}
					cand := Taint{Kind: t.Kind, Chain: append([]string{FuncLabel(e.callee)}, t.Chain...)}
					if mergeTaint(sums[f], cand) {
						changed = true
					}
				}
			}
		}
	}
	for _, f := range fns {
		if len(sums[f]) == 0 {
			continue
		}
		pf.Funcs[FuncLabel(f)] = &FuncFacts{Taints: sortedTaints(sums[f])}
	}
	return pf
}

// sortedTaints flattens a per-kind summary into the canonical serialized
// order: by kind, then chain.
func sortedTaints(sum map[TaintKind]Taint) []Taint {
	out := make([]Taint, 0, len(sum))
	for _, t := range sum { //gowren:allow mapiter — flattened slice is fully sorted below

		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return chainLess(out[i].Chain, out[j].Chain)
	})
	return out
}

// Summaries computes and serializes every package's taint facts in
// import-topological order — the same computation Run performs before
// dispatching analyzers — keyed by import path. gowren-vet -facts dumps
// this, and the analysistest facts goldens pin it.
func Summaries(pkgs []*Package) map[string][]byte {
	db := NewFactDB()
	for _, pkg := range topoOrder(pkgs) {
		_ = db.Add(computeFacts(pkg, db, allowedLines(pkg)))
	}
	out := make(map[string][]byte, len(db.encoded))
	for path, data := range db.encoded {
		out[path] = data
	}
	return out
}

// topoOrder schedules packages so every package follows the packages it
// imports (restricted to the analyzed set). Ties break lexicographically,
// so the order — and everything downstream of it — is deterministic. A
// dependency cycle (impossible in valid Go) degrades to path order.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	indegree := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string, len(pkgs))
	for _, p := range pkgs {
		indegree[p.Path] += 0
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; !ok || imp == p.Path {
				continue
			}
			indegree[p.Path]++
			dependents[imp] = append(dependents[imp], p.Path)
		}
	}
	var ready []string
	for path, d := range indegree { //gowren:allow mapiter — candidates sorted before use
		if d == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	out := make([]*Package, 0, len(pkgs))
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		out = append(out, byPath[path])
		next := dependents[path]
		sort.Strings(next)
		for _, dep := range next {
			indegree[dep]--
			if indegree[dep] == 0 {
				ready = append(ready, dep)
				sort.Strings(ready)
			}
		}
	}
	if len(out) < len(pkgs) { // cycle fallback: keep every package
		seen := make(map[string]bool, len(out))
		for _, p := range out {
			seen[p.Path] = true
		}
		var rest []string
		for path := range byPath { //gowren:allow mapiter — remainder sorted before use
			if !seen[path] {
				rest = append(rest, path)
			}
		}
		sort.Strings(rest)
		for _, path := range rest {
			out = append(out, byPath[path])
		}
	}
	return out
}
