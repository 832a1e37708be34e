package gowren_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExecutorOptionsDocumented keeps README's "Executor options" table and
// the exported With* executor options of package gowren in step: every
// option has a row, and every row names an option that exists and a real
// user of it. Only that table is read; the API-diff tables elsewhere in
// README name removed options on purpose.
func TestExecutorOptionsDocumented(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var options []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "ExecutorOption" {
					options = append(options, fn.Name.Name)
				}
			}
		}
	}
	if len(options) == 0 {
		t.Fatal("found no exported With* executor options")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := optionsTableRows(string(readme))
	if len(rows) == 0 {
		t.Fatal(`README has no "## Executor options" table`)
	}
	cell := regexp.MustCompile("^`(With[A-Za-z0-9]*)\\(")
	var documented []string
	for _, row := range rows {
		m := cell.FindStringSubmatch(row)
		if m == nil {
			t.Errorf("options table row does not start with a `WithX(...)` cell: %s", row)
			continue
		}
		documented = append(documented, m[1])
		cells := strings.Split(strings.TrimSuffix(row, "|"), "|")
		if err := checkUsers(m[1], cells[len(cells)-1]); err != nil {
			t.Error(err)
		}
	}
	for _, name := range options {
		if !slices.Contains(documented, name) {
			t.Errorf("exported option %s has no row in README's Executor options table", name)
		}
	}
	for _, name := range documented {
		if !slices.Contains(options, name) {
			t.Errorf("README's Executor options table names %s, which package gowren does not export", name)
		}
	}
}

// userDirs are where a production user of an option lives.
var userDirs = []string{"cmd/", "examples/", "bench/", "internal/experiments/"}

// checkUsers checks the "Used … by" cell of option's row: every path it
// names under userDirs must exist and contain the option's name in a
// non-test Go file (a directory counts through its files), and there must
// be at least one such path. Test names may appear too, but a test is not
// a user.
func checkUsers(option, cell string) error {
	users := 0
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cell, -1) {
		path := m[1]
		if !slices.ContainsFunc(userDirs, func(dir string) bool { return strings.HasPrefix(path, dir) }) {
			continue
		}
		files := []string{path}
		if info, err := os.Stat(path); err != nil {
			return fmt.Errorf("options table row %s names %s: %v", option, path, err)
		} else if info.IsDir() {
			files, _ = filepath.Glob(filepath.Join(path, "*.go"))
		}
		found := false
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			found = found || strings.Contains(string(src), option)
		}
		if !found {
			return fmt.Errorf("options table row %s names %s, which does not use it outside tests", option, path)
		}
		users++
	}
	if users == 0 {
		return fmt.Errorf("options table row %s names no user under %s", option, strings.Join(userDirs, ", "))
	}
	return nil
}

// optionsTableRows returns the body rows of the first table under the
// "## Executor options" heading, each with its leading "| " removed.
func optionsTableRows(readme string) []string {
	_, section, ok := strings.Cut(readme, "\n## Executor options\n")
	if !ok {
		return nil
	}
	var rows []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		rows = append(rows, strings.TrimSpace(strings.TrimPrefix(line, "|")))
	}
	if len(rows) < 2 {
		return nil
	}
	return rows[2:] // header and separator
}
