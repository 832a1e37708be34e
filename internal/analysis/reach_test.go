package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestNothingUnreached fails on every function or method in the root
// package and internal/ that no production path reaches, and on every
// exported field of a *Config or *Options struct that no production code
// sets. Tests are not users: a knob only a test turns is reported. It is a
// test rather than a gowren-vet analyzer because reachability needs the
// whole program at once, which the per-package Pass never sees. A
// justified keep carries
//
//	//gowren:allow reach — why
//
// on the line above the declaration.
func TestNothingUnreached(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, f := range unreached("gowren", pkgs) {
		t.Errorf("%s: %s", f.pos, f.message())
	}
}

// reachFinding is one unreached function or one never-set config field.
type reachFinding struct {
	pos   token.Position
	name  string // FuncLabel, or "path.Type.Field" for a field
	field bool
}

func (f reachFinding) message() string {
	if f.field {
		return fmt.Sprintf("config field %s is set by no production code; delete it, or keep it with //gowren:allow reach — why", f.name)
	}
	return fmt.Sprintf("%s is reached by no production path; delete it, or keep it with //gowren:allow reach — why", f.name)
}

// funcDecl is one declared function body.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// concreteMethod is one method in the method set of a module type.
type concreteMethod struct {
	fn  *types.Func
	sig string
}

// reachGraph walks the module's functions from its production roots.
//
// Load type-checks each package against its imports' export data, so one
// function is a different *types.Func in its own package and in each
// importer. Functions are therefore keyed by FuncLabel, and a type
// implements an interface when it has every method by name and by
// signature string.
type reachGraph struct {
	decls   map[string][]funcDecl
	reached map[string]bool
	queue   []string
	// methods indexes every named module type's pointer method set by
	// method name, so an interface method finds its implementations.
	methods map[string][]map[string]concreteMethod
	// dispatched holds the interface methods already expanded.
	dispatched map[*types.Func]bool
}

// unreached reports the functions of module's root package and internal/
// packages that no root reaches, and the exported *Config/*Options fields
// that no code in pkgs sets, minus those kept by //gowren:allow reach.
// pkgs holds no test files, so a test is never a user.
//
// Roots: every main and init, every package-level initializer, the root
// package's exported functions other than its With* options, the exported
// methods of the types the root package declares itself (promoted ones
// included, aliased ones not), and every function of a package whose name
// ends in "test". Edges: every function a declaration
// names — a call, a method value, a function value, a generic instance.
// An interface that reached code names or calls reaches its methods on
// every module type that implements it, and every method of an interface
// declared outside the module counts as called.
func unreached(module string, pkgs []*Package) []reachFinding {
	g := &reachGraph{
		decls:      map[string][]funcDecl{},
		reached:    map[string]bool{},
		methods:    map[string][]map[string]concreteMethod{},
		dispatched: map[*types.Func]bool{},
	}
	allowed := make(map[*Package]allowSet, len(pkgs))
	for _, pkg := range pkgs {
		allowed[pkg] = allowedLines(pkg)
		g.index(pkg)
	}
	for _, pkg := range pkgs {
		g.roots(module, pkg, allowed[pkg])
	}
	g.externalInterfaces(module, pkgs)
	for len(g.queue) > 0 {
		key := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, d := range g.decls[key] {
			g.walk(d.pkg, d.decl)
		}
	}

	set := fieldsSet(pkgs)
	var out []reachFinding
	for _, pkg := range pkgs {
		if pkg.Path != module && !strings.HasPrefix(pkg.Path, module+"/internal/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if key := FuncLabel(pkg.Info.Defs[fd.Name].(*types.Func)); !g.reached[key] {
					out = append(out, reachFinding{pos: pkg.Fset.Position(fd.Pos()), name: key})
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			owner := types.TypeString(tn.Type(), nil)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || set[owner+"."+f.Name()] {
					continue
				}
				if pos := pkg.Fset.Position(f.Pos()); !allowed[pkg].allowsAt(pos, "reach") {
					out = append(out, reachFinding{pos: pos, name: owner + "." + f.Name(), field: true})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out
}

func isTestPackage(pkg *Package) bool { return strings.HasSuffix(pkg.Types.Name(), "test") }

// index records pkg's function declarations and its named types' methods.
func (g *reachGraph) index(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				key := FuncLabel(pkg.Info.Defs[fd.Name].(*types.Func))
				g.decls[key] = append(g.decls[key], funcDecl{pkg, fd})
			}
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		methods := make(map[string]concreteMethod, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			methods[fn.Name()] = concreteMethod{fn: fn, sig: sigString(fn)}
		}
		for name := range methods {
			g.methods[name] = append(g.methods[name], methods)
		}
	}
}

// roots queues pkg's production roots. A function kept by
// //gowren:allow reach is a root too, so what it calls stays.
func (g *reachGraph) roots(module string, pkg *Package, allowed allowSet) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if isTestPackage(pkg) || d.Recv == nil && (name == "init" || name == "main" && pkg.Types.Name() == "main") ||
					allowed.allowsAt(pkg.Fset.Position(d.Pos()), "reach") {
					g.reach(pkg.Info.Defs[d.Name].(*types.Func))
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR || d.Tok == token.CONST {
					g.walk(pkg, d)
				}
			}
		}
	}
	if pkg.Path != module {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if !strings.HasPrefix(name, "With") {
				g.reach(obj)
			}
		case *types.TypeName:
			if obj.IsAlias() {
				continue
			}
			typ := obj.Type()
			for _, t := range []types.Type{typ, types.NewPointer(typ)} {
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
						g.reach(fn)
					}
				}
			}
		}
	}
}

// externalInterfaces counts every method of every interface declared
// outside the module as called: the standard library calls Error, String,
// MarshalJSON, ServeHTTP, Unwrap and the like on module types.
func (g *reachGraph) externalInterfaces(module string, pkgs []*Package) {
	seen := map[string]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		if p.Path() != module && !strings.HasPrefix(p.Path(), module+"/") {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					g.dispatchAll(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := CheckFiles(fset, nil, "errors", []*ast.File{f})
	if err != nil {
		panic(err)
	}
	for _, name := range errs.Types.Scope().Names() {
		g.dispatchAll(errs.Types.Scope().Lookup(name).Type())
	}
}

// errorsInterfaces declares error and the unnamed interfaces through which
// errors.Is and errors.As call module types.
const errorsInterfaces = `package errors
type err interface{ error }
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

// walk follows every function and interface that node names.
func (g *reachGraph) walk(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := pkg.Info.Uses[id].(type) {
		case *types.Func:
			g.reach(obj)
		case *types.TypeName:
			g.dispatchAll(obj.Type())
		}
		return true
	})
}

// reach marks fn reached; an interface method reaches its implementations.
func (g *reachGraph) reach(fn *types.Func) {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		g.dispatch(fn)
		return
	}
	if key := FuncLabel(fn); !g.reached[key] {
		g.reached[key] = true
		g.queue = append(g.queue, key)
	}
}

// dispatchAll reaches every method of t when t is an interface.
func (g *reachGraph) dispatchAll(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		g.dispatch(iface.Method(i))
	}
}

// dispatch reaches interface method m on every module type that
// implements m's interface.
func (g *reachGraph) dispatch(m *types.Func) {
	if g.dispatched[m] {
		return
	}
	g.dispatched[m] = true
	iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	for _, methods := range g.methods[m.Name()] {
		if implements(methods, iface) {
			g.reach(methods[m.Name()].fn)
		}
	}
}

// implements reports whether a method set has every method of iface, by
// name and signature; an unexported method must come from the same package.
func implements(methods map[string]concreteMethod, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		got, ok := methods[want.Name()]
		if !ok || got.sig != sigString(want) || !want.Exported() && got.fn.Pkg().Path() != want.Pkg().Path() {
			return false
		}
	}
	return true
}

// sigString renders fn's parameter and result types, without names, the
// same way in every package that sees fn.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// fieldsSet collects the struct fields code sets: by a composite literal,
// an assignment, an increment or an address-of. An assignment guarded by
// a test of the same field, as in `if c.F == 0 { c.F = d }`, defaults the
// field and sets nothing.
func fieldsSet(pkgs []*Package) map[string]bool {
	set := map[string]bool{}
	for _, pkg := range pkgs {
		info := pkg.Info
		defaults := map[*ast.AssignStmt]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := types.Unalias(info.Types[n].Type)
					if p, ok := t.(*types.Pointer); ok {
						t = types.Unalias(p.Elem())
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					owner := types.TypeString(t, nil)
					for i, elt := range n.Elts {
						name := st.Field(i).Name()
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							name = kv.Key.(*ast.Ident).Name
						}
						set[owner+"."+name] = true
					}
				case *ast.IfStmt:
					tested := map[types.Object]bool{}
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if sel, ok := c.(*ast.SelectorExpr); ok {
							tested[info.Uses[sel.Sel]] = true
						}
						return true
					})
					for _, stmt := range n.Body.List {
						if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
							if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && tested[info.Uses[sel.Sel]] {
								defaults[as] = true
							}
						}
					}
				case *ast.AssignStmt:
					if !defaults[n] {
						for _, lhs := range n.Lhs {
							setSelector(info, lhs, set)
						}
					}
				case *ast.IncDecStmt:
					setSelector(info, n.X, set)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSelector(info, n.X, set)
					}
				}
				return true
			})
		}
	}
	return set
}

// setSelector records the field e selects, if it selects one.
func setSelector(info *types.Info, e ast.Expr, set map[string]bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	deref := func(t types.Type) types.Type {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.Unalias(t)
	}
	t := deref(s.Recv())
	index := s.Index()
	for _, i := range index[:len(index)-1] {
		t = deref(t.Underlying().(*types.Struct).Field(i).Type())
	}
	set[types.TypeString(t, nil)+"."+sel.Sel.Name] = true
}

// TestUnreachedCases runs the check over small in-memory modules named m.
func TestUnreachedCases(t *testing.T) {
	type src struct{ path, code string }
	const main = "m/cmd/x"
	cases := []struct {
		name string
		pkgs []src // in import order
		want []string
	}{{
		name: "interface-dispatched method",
		pkgs: []src{
			{"m/internal/a", `package a
type Square struct{}
func (Square) Area() int { return 4 }
func (Square) Side() int { return 2 }
type Circle struct{}
func (Circle) Area() int { return 3 }`},
			{main, `package main
import "m/internal/a"
func main() {
	var s interface{ Area() int } = a.Square{}
	_ = s.Area()
}`},
		},
		want: []string{"m/internal/a.Square.Side"},
	}, {
		name: "method value",
		pkgs: []src{
			{"m/internal/a", `package a
type T struct{}
func (T) Used() {}
func (T) Unused() {}`},
			{main, `package main
import "m/internal/a"
func main() { f := a.T{}.Used; f() }`},
		},
		want: []string{"m/internal/a.T.Unused"},
	}, {
		name: "function passed as a value",
		pkgs: []src{
			{"m/internal/a", `package a
func Run(f func()) { f() }
func Callback() {}
func Dead() {}`},
			{main, `package main
import "m/internal/a"
func main() { a.Run(a.Callback) }`},
		},
		want: []string{"m/internal/a.Dead"},
	}, {
		name: "generic instance",
		pkgs: []src{
			{"m/internal/a", `package a
func Map[T any](x T) T { return x }
type Box[T any] struct{ v T }
func (b Box[T]) Get() T { return b.v }
func (b Box[T]) Put(v T) {}`},
			{main, `package main
import "m/internal/a"
func main() { _ = a.Map(1); _ = a.Box[int]{}.Get() }`},
		},
		want: []string{"m/internal/a.Box.Put"},
	}, {
		name: "init",
		pkgs: []src{
			{"m/internal/a", `package a
func init() { setup() }
func setup() {}
func dead() {}`},
			{main, `package main
import _ "m/internal/a"
func main() {}`},
		},
		want: []string{"m/internal/a.dead"},
	}, {
		name: "package-level initializer",
		pkgs: []src{{"m/internal/a", `package a
var table = build()
var hook = onEvent
func build() int { return 1 }
func onEvent() {}
func dead() {}`}},
		want: []string{"m/internal/a.dead"},
	}, {
		name: "marker method",
		pkgs: []src{
			{"m/internal/a", `package a
type Source interface{ isSource() }
type Inline []int
func (Inline) isSource() {}
func (Inline) Len() int { return 0 }
func Use(s Source) {}`},
			{main, `package main
import "m/internal/a"
func main() { a.Use(a.Inline{1}) }`},
		},
		want: []string{"m/internal/a.Inline.Len"},
	}, {
		name: "allow-kept function",
		pkgs: []src{{"m/internal/a", `package a
//gowren:allow reach — run by a benchmark
func Kept() { helper() }
func helper() {}
func Dead() {}`}},
		want: []string{"m/internal/a.Dead"},
	}, {
		name: "test package",
		pkgs: []src{
			{"m/internal/a", `package a
func ForTests() {}
func Dead() {}`},
			{"m/internal/atest", `package atest
import "m/internal/a"
func Helper() { a.ForTests() }`},
		},
		want: []string{"m/internal/a.Dead"},
	}, {
		name: "root exports and aliases",
		pkgs: []src{
			{"m/internal/a", `package a
type T struct{}
func (T) M() {}
func (T) m() {}
type U struct{}
func (U) Promoted() {}
func Helper() {}
func Dead() {}`},
			{"m", `package m
import "m/internal/a"
type T = a.T
type R struct{ a.U }
func (R) Verb() { a.Helper() }
type Option func()
func WithUsed() Option { return nil }
func WithUnused() Option { return nil }
func Exported() {}
func unexported() {}`},
			{main, `package main
import "m"
func main() { m.WithUsed() }`},
		},
		want: []string{"m/internal/a.T.M", "m/internal/a.T.m", "m/internal/a.Dead", "m.WithUnused", "m.unexported"},
	}, {
		name: "config fields",
		pkgs: []src{
			{"m/internal/a", `package a
type Config struct{ Set, Never, Defaulted int }
func New(c Config) int {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c.Set + c.Never + c.Defaulted
}`},
			{main, `package main
import "m/internal/a"
func main() { a.New(a.Config{Set: 1}) }`},
		},
		want: []string{"m/internal/a.Config.Never", "m/internal/a.Config.Defaulted"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			checked := map[string]*types.Package{}
			imp := importerFunc(func(path string) (*types.Package, error) {
				if p, ok := checked[path]; ok {
					return p, nil
				}
				return nil, fmt.Errorf("no package %s", path)
			})
			var pkgs []*Package
			for _, s := range tc.pkgs {
				f, err := parser.ParseFile(fset, s.path+"/x.go", s.code, parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				pkg, err := CheckFiles(fset, imp, s.path, []*ast.File{f})
				if err != nil {
					t.Fatal(err)
				}
				checked[s.path] = pkg.Types
				pkgs = append(pkgs, pkg)
			}
			var got []string
			for _, f := range unreached("m", pkgs) {
				got = append(got, f.name)
			}
			sort.Strings(got)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("reported %v, want %v", got, want)
			}
		})
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
