package openmfa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// auditedServers are the server and client types whose exported fields are
// options although their names do not say so.
var auditedServers = map[string]bool{
	"internal/sshd.Server":   true,
	"internal/radius.Server": true,
	"internal/radius.Client": true,
	"internal/radius.Pool":   true,
}

// auditedType reports whether the exported fields of struct type name,
// declared in directory dir, are options that need a setter.
func auditedType(dir, name string) bool {
	if auditedServers[dir+"."+name] {
		return true
	}
	if !strings.HasPrefix(dir, "internal/") {
		return false
	}
	for _, suffix := range []string{"Config", "Options", "Policy", "Rules"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// option is one exported field of an audited struct.
type option struct{ dir, typ, name, file string }

// references lists, for each key, the files that name it: "dir.Type.Field"
// for a key of a composite literal of dir.Type, and "dir.*.Field" for a
// selector x.Field in a file of package dir or one that imports it.
func references(path, dir string, f *ast.File, refs map[string][]string) {
	imports := map[string]string{} // local name -> directory in the module
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = strings.TrimPrefix(p, "openmfa/")
	}
	add := func(key string) { refs[key] = append(refs[key], path) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := ""
			switch t := n.Type.(type) {
			case *ast.Ident:
				typ = dir + "." + t.Name
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok && imports[x.Name] != "" {
					typ = imports[x.Name] + "." + t.Sel.Name
				}
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && typ != "" {
					if key, ok := kv.Key.(*ast.Ident); ok {
						add(typ + "." + key.Name)
					}
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return true // a package-qualified name, not a field
			}
			add(dir + ".*." + n.Sel.Name)
			for _, d := range imports {
				add(d + ".*." + n.Sel.Name)
			}
		}
		return true
	})
}

// Every exported option of the library is named by some file other than
// the one declaring it: a daemon, example, simulator, benchmark or test
// sets it. An option nothing sets is a constant behind a default branch
// that never runs; make it one.
func TestEveryOptionHasASetter(t *testing.T) {
	fset := token.NewFileSet()
	var options []option
	refs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		references(path, dir, f, refs)
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !auditedType(dir, ts.Name.Name) {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							options = append(options, option{dir, ts.Name.Name, name.Name, path})
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(options) < 50 {
		t.Fatalf("found %d options; the audit no longer finds the config structs", len(options))
	}
	setBy := func(o option) bool {
		for _, key := range []string{o.dir + "." + o.typ + "." + o.name, o.dir + ".*." + o.name} {
			for _, file := range refs[key] {
				if file != o.file {
					return true
				}
			}
		}
		return false
	}
	for _, o := range options {
		if !setBy(o) {
			t.Errorf("%s: %s.%s is named by no other file: make it a constant", o.file, o.typ, o.name)
		}
	}
}
