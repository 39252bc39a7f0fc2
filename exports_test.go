package pop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers fails on any exported func or method
// declared in a non-test file under internal/ that no non-test file in
// the repository calls: bench/, cmd/ and examples/ count as callers,
// tests do not. A test that needs a helper the program does not declares
// it in its package's export_test.go. The audit is syntactic:
//   - a package-level func is called by a selector qualified with an
//     import of its package, or by a bare identifier in its own package
//     other than its declaration;
//   - a method is called by any selector of its name, on any type, so a
//     method reached through an interface counts.
//
// internal/ds/dstest is exempt: it is the ds conformance suite, a
// test-support package whose only callers are tests.
func TestInternalExportsHaveCallers(t *testing.T) {
	const module = "pop"
	exempt := map[string]bool{"internal/ds/dstest": true}

	type file struct {
		dir string
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: "dir.Name" for a func, "Name" for a method (any
	// selector of that name calls it).
	funcs := map[string]string{}     // dir.Name → "file:line pkg.Name"
	methods := map[string][]string{} // Name → "file:line pkg.(Recv).Name"
	declIdents := map[*ast.Ident]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") || exempt[fl.dir] {
			continue
		}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			declIdents[fd.Name] = true
			pos := fset.Position(fd.Pos())
			where := pos.Filename + ":" + strconv.Itoa(pos.Line) + " " + fl.f.Name.Name + "."
			if fd.Recv == nil {
				funcs[fl.dir+"."+fd.Name.Name] = where + fd.Name.Name
				continue
			}
			methods[fd.Name.Name] = append(methods[fd.Name.Name],
				where+"("+recvName(fd.Recv.List[0].Type)+")."+fd.Name.Name)
		}
	}

	called := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name → dir
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if !strings.HasPrefix(p, module+"/internal/") {
				continue
			}
			dir := strings.TrimPrefix(p, module+"/")
			local := path.Base(dir)
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = dir
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				called[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						called[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							skip[k] = true
						}
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] && !declIdents[n] {
					called[fl.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for key, where := range funcs {
		if !called[key] {
			unused = append(unused, where)
		}
	}
	for name, wheres := range methods {
		if !called[name] {
			unused = append(unused, wheres...)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no non-test file calls it", u)
	}
}

// recvName is the receiver's type name without its pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
