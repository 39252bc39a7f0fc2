package pop_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers fails on any exported func, type,
// const or var, or exported method of an exported type, declared in a
// non-test file under internal/ that no non-test file in the repository
// uses: bench/, cmd/ and examples/ count as users, tests do not. A test
// that needs a name the program does not declares it in its package's
// export_test.go.
//
// The audit type-checks every non-test package of the root module and of
// bench/ through one importer, so all packages share one set of objects,
// and an object counts as used only when
//   - a non-test file refers to that exact object, outside its own
//     declaration and body and outside the receivers of methods; or
//   - it is a method, a non-test file selects a method of its name on an
//     interface or a type parameter's constraint, and the receiver type
//     or its pointer implements that interface.
//
// A field, or a method of another type, of the same name does not count.
// internal/ds/dstest is exempt: it is the ds conformance suite, a
// test-support package whose only callers are tests. String and Error
// are exempt too: fmt calls them.
func TestInternalExportsHaveCallers(t *testing.T) {
	const module = "pop"
	exempt := map[string]bool{module + "/internal/ds/dstest": true}

	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		dirs:   map[string]string{},
		loaded: map[string]*checked{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		importPath := path.Join(module, filepath.ToSlash(p))
		l.dirs[importPath] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*checked
	for importPath := range l.dirs {
		c, err := l.load(importPath)
		if err != nil {
			t.Fatal(err)
		}
		if c != nil {
			pkgs = append(pkgs, c)
		}
	}

	// What the non-test files use: exact objects, and method names
	// selected on interfaces (a type parameter selects on its constraint).
	used := map[types.Object]bool{}
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	var ifaceCalls []ifaceCall
	for _, c := range pkgs {
		recvs := map[*ast.Ident]bool{}
		for _, f := range c.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range c.info.Uses {
			obj = origin(obj)
			if !recvs[id] && !within(obj, id.Pos()) {
				used[obj] = true
			}
		}
		for _, sel := range c.info.Selections {
			if sel.Kind() != types.MethodVal {
				continue
			}
			recv := sel.Recv()
			if tp, ok := recv.(*types.TypeParam); ok {
				recv = tp.Constraint()
			}
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				ifaceCalls = append(ifaceCalls, ifaceCall{iface, sel.Obj().Name()})
			}
		}
	}
	implements := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, ic := range ifaceCalls {
			if ic.name == m.Name() &&
				(types.Implements(recv, ic.iface) || types.Implements(types.NewPointer(recv), ic.iface)) {
				return true
			}
		}
		return false
	}

	var unused []string
	report := func(obj types.Object, name string) {
		unused = append(unused, fmt.Sprintf("%s %s.%s", fset.Position(obj.Pos()), obj.Pkg().Name(), name))
	}
	for _, c := range pkgs {
		if !strings.HasPrefix(c.pkg.Path(), module+"/internal/") || exempt[c.pkg.Path()] {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || m.Name() == "String" || m.Name() == "Error" {
					continue
				}
				if !used[m] && !implements(m) {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no non-test file uses it", u)
	}
}

// checked is one type-checked package with the files it was checked from.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader is a types.Importer that checks the repository's packages from
// source, each once, and takes the standard library from export data.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string // import path → directory, relative to the root
	loaded map[string]*checked
}

func (l *loader) Import(importPath string) (*types.Package, error) {
	if _, ok := l.dirs[importPath]; !ok {
		return l.std.Import(importPath)
	}
	c, err := l.load(importPath)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", importPath)
	}
	return c.pkg, nil
}

// load checks the non-test files of a repository package that the
// default build context selects; it returns nil for a directory with
// none.
func (l *loader) load(importPath string) (*checked, error) {
	if c, ok := l.loaded[importPath]; ok {
		return c, nil
	}
	dir := l.dirs[importPath]
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
		l.loaded[importPath] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	c := &checked{info: &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: l}
	if c.pkg, err = conf.Check(importPath, l.fset, c.files, c.info); err != nil {
		return nil, err
	}
	l.loaded[importPath] = c
	return c, nil
}

// origin is the declared object behind an instantiation of a generic
// func, method or field.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// within reports whether pos lies in obj's own body, where a recursive
// call is not a use.
func within(obj types.Object, pos token.Pos) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Scope() != nil && f.Scope().Contains(pos)
}
