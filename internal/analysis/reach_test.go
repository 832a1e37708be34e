package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNothingUnreached fails on every function or method in the root
// package and internal/ that no production path reaches, and on every
// exported field of a *Config or *Options struct that nothing in the
// module sets, tests included. It is a test rather than a gowren-vet
// analyzer because reachability needs the whole program at once, which the
// per-package Pass never sees. A justified keep carries
//
//	//gowren:allow reach — why
//
// on the line above the declaration.
func TestNothingUnreached(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	tests, err := parseTestFiles("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unreached("gowren", pkgs, tests) {
		t.Errorf("%s: %s", f.pos, f.message())
	}
}

// parseTestFiles parses every _test.go file under dir, skipping testdata
// and hidden directories. Test files only count as setters of config
// fields, so they are read by syntax alone.
func parseTestFiles(dir string) ([]*ast.File, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	return files, err
}

// reachFinding is one unreached function or one never-set config field.
type reachFinding struct {
	pos   token.Position
	name  string // FuncLabel, or "path.Type.Field" for a field
	field bool
}

func (f reachFinding) message() string {
	if f.field {
		return fmt.Sprintf("config field %s is set nowhere, tests included; delete it, or keep it with //gowren:allow reach — why", f.name)
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
// that neither pkgs nor the syntax-only tests set, minus those kept by
// //gowren:allow reach.
//
// Roots: every main and init, every package-level initializer, the root
// package's exported functions and the exported methods of its exported
// types (promoted and aliased ones included), and every function of a
// package whose name ends in "test". Edges: every function a declaration
// names — a call, a method value, a function value, a generic instance.
// An interface that reached code names or calls reaches its methods on
// every module type that implements it, and every method of an interface
// declared outside the module counts as called.
func unreached(module string, pkgs []*Package, tests []*ast.File) []reachFinding {
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

	set := fieldsSet(pkgs, tests)
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
				if !f.Exported() || f.Embedded() || set.typed[owner+"."+f.Name()] || set.tests[name+"."+f.Name()] || set.tests["."+f.Name()] {
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
			g.reach(obj)
		case *types.TypeName:
			typ := types.Unalias(obj.Type())
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

// setFields holds the config fields some code sets. typed is keyed
// "path.Type.Field" from type-checked code. tests is keyed "Type.Field"
// from test files, which are read by syntax alone, and ".Field" where a
// test sets a field of a type its syntax does not name.
type setFields struct {
	typed map[string]bool
	tests map[string]bool
}

// fieldsSet collects the struct fields code sets: by a composite literal,
// an assignment, an increment or an address-of. An assignment guarded by
// a test of the same field, as in `if c.F == 0 { c.F = d }`, defaults the
// field and sets nothing.
func fieldsSet(pkgs []*Package, tests []*ast.File) setFields {
	set := setFields{typed: map[string]bool{}, tests: map[string]bool{}}
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
						set.typed[owner+"."+name] = true
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
							setSelector(info, lhs, set.typed)
						}
					}
				case *ast.IncDecStmt:
					setSelector(info, n.X, set.typed)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSelector(info, n.X, set.typed)
					}
				}
				return true
			})
		}
	}
	for _, file := range tests {
		// elided maps a composite literal without a type to the element
		// type of the literal around it.
		elided := map[*ast.CompositeLit]ast.Expr{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var elem ast.Expr
				switch t := typ.(type) {
				case *ast.ArrayType:
					elem = t.Elt
				case *ast.MapType:
					elem = t.Value
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && elem == nil {
							set.tests[typeName(typ)+"."+key.Name] = true
						}
						elt = kv.Value
					}
					if inner, ok := elt.(*ast.CompositeLit); ok && inner.Type == nil {
						elided[inner] = elem
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set.tests[declaredType(sel.X)+"."+sel.Sel.Name] = true
					}
				}
			}
			return true
		})
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

// typeName is the name of the named type e spells, or "".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return typeName(e.X)
	}
	return ""
}

// declaredType is the name of the type x's declaration spells out — a
// typed parameter or variable, or a composite literal it is assigned —
// or "" when the syntax does not say.
func declaredType(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok || id.Obj == nil {
		return ""
	}
	var names, values []ast.Expr
	switch d := id.Obj.Decl.(type) {
	case *ast.Field:
		return typeName(d.Type)
	case *ast.ValueSpec:
		if d.Type != nil {
			return typeName(d.Type)
		}
		for _, n := range d.Names {
			names = append(names, n)
		}
		values = d.Values
	case *ast.AssignStmt:
		names, values = d.Lhs, d.Rhs
	}
	for i, n := range names {
		if n.(*ast.Ident).Name != id.Name || len(values) != len(names) {
			continue
		}
		v := values[i]
		if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
			v = u.X
		}
		if lit, ok := v.(*ast.CompositeLit); ok {
			return typeName(lit.Type)
		}
	}
	return ""
}

// TestUnreachedCases runs the check over small in-memory modules named m.
func TestUnreachedCases(t *testing.T) {
	type src struct{ path, code string }
	const main = "m/cmd/x"
	cases := []struct {
		name  string
		pkgs  []src // in import order
		tests string
		want  []string
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
func Helper() {}
func Dead() {}`},
			{"m", `package m
import "m/internal/a"
type T = a.T
func Exported() { a.Helper() }
func unexported() {}`},
		},
		want: []string{"m/internal/a.T.m", "m/internal/a.Dead", "m.unexported"},
	}, {
		name: "config fields",
		pkgs: []src{
			{"m/internal/a", `package a
type Config struct{ Set, TestOnly, Never, Defaulted int }
func New(c Config) int {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c.Set + c.TestOnly + c.Never + c.Defaulted
}`},
			{main, `package main
import "m/internal/a"
func main() { a.New(a.Config{Set: 1}) }`},
		},
		tests: `package a
func f() { _ = New(Config{TestOnly: 2}) }`,
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
			var tests []*ast.File
			if tc.tests != "" {
				f, err := parser.ParseFile(fset, "x_test.go", tc.tests, 0)
				if err != nil {
					t.Fatal(err)
				}
				tests = append(tests, f)
			}
			var got []string
			for _, f := range unreached("m", pkgs, tests) {
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
