package docspanner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignNamesResolve checks the code spans of DESIGN.md that name Go
// identifiers against the declarations of the tree's non-test files,
// read with go/parser:
//
//   - `pkg.Name` and `pkg.Type.Member`: pkg is a package of the
//     repository that declares Name, and Type has the method or field
//     Member;
//   - `Type.Member`: a type Type of the repository has the method or
//     field Member;
//   - `Name`, exported: some non-test file declares it, at top level or
//     as a method or field; a Test…, Benchmark…, Fuzz… or Example… name
//     must be a function of a _test.go file instead.
//
// A trailing argument list, `Name(args)`, and a leading * are dropped.
// A span whose head is neither a package nor a type of the repository
// (a standard-library package, a variable as in `ctx.Err()`) or that
// names a file (`go.mod`) is not checked, nor is an unexported bare
// name, which is as often a spanql keyword as a Go one.
func TestDesignNamesResolve(t *testing.T) {
	md, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	src := declaredNames(t)
	ident := regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$`)
	span := regexp.MustCompile("`([^`\n]+)`")
	checked := 0
	for i, line := range strings.Split(string(md), "\n") {
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			id := ident.FindStringSubmatch(m[1])
			if id == nil {
				continue
			}
			parts := strings.Split(id[1], ".")
			if len(parts) > 1 && fileExt[parts[len(parts)-1]] {
				continue
			}
			ok, isIdent := src.resolve(parts)
			if !isIdent {
				continue
			}
			checked++
			if !ok {
				t.Errorf("DESIGN.md:%d: `%s` names nothing the non-test sources declare", i+1, m[1])
			}
		}
	}
	if checked == 0 {
		t.Error("DESIGN.md: no code span names a Go identifier")
	}
}

// fileExt are the extensions of the file names DESIGN.md mentions.
var fileExt = map[string]bool{"go": true, "mod": true, "sum": true, "json": true, "md": true, "sh": true, "yml": true}

// sourceNames indexes declarations: per package name its top-level
// names, per type name its methods and fields, every declared name, and
// the functions of the _test.go files.
type sourceNames struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	all     map[string]bool
	tests   map[string]bool
}

// resolve reports whether the dotted name parts resolve, and whether
// they are an identifier the rules above check at all.
func (s *sourceNames) resolve(parts []string) (ok, isIdent bool) {
	head := parts[0]
	if len(parts) == 1 {
		switch {
		case !ast.IsExported(head):
			return false, false
		case strings.HasPrefix(head, "Test"), strings.HasPrefix(head, "Benchmark"),
			strings.HasPrefix(head, "Fuzz"), strings.HasPrefix(head, "Example"):
			return s.tests[head], true
		}
		return s.all[head], true
	}
	if decls, isPkg := s.pkgs[head]; isPkg {
		if !decls[parts[1]] {
			return false, true
		}
		parts = parts[1:]
	} else if s.members[head] == nil {
		return false, false
	}
	for i := 1; i < len(parts); i++ {
		if !s.members[parts[i-1]][parts[i]] {
			return false, true
		}
	}
	return true, true
}

// declaredNames parses every .go file of the repository, skipping
// testdata and hidden directories.
func declaredNames(t *testing.T) *sourceNames {
	t.Helper()
	s := &sourceNames{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, all: map[string]bool{}, tests: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					s.tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		s.addFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addFile records the declarations of one non-test file.
func (s *sourceNames) addFile(f *ast.File) {
	top := s.pkgs[f.Name.Name]
	if top == nil {
		top = map[string]bool{}
		s.pkgs[f.Name.Name] = top
	}
	member := func(typ, name string) {
		if s.members[typ] == nil {
			s.members[typ] = map[string]bool{}
		}
		s.members[typ][name] = true
		s.all[name] = true
	}
	for name := range topLevelNames(f) {
		top[name] = true
		s.all[name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && len(d.Recv.List) == 1 {
				member(receiverType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				var fields *ast.FieldList
				switch tt := ts.Type.(type) {
				case *ast.StructType:
					fields = tt.Fields
				case *ast.InterfaceType:
					fields = tt.Methods
				}
				if fields == nil {
					continue
				}
				for _, fld := range fields.List {
					for _, n := range fld.Names {
						member(ts.Name.Name, n.Name)
					}
					if len(fld.Names) == 0 { // embedded: named after its type
						member(ts.Name.Name, receiverType(fld.Type))
					}
				}
			}
		}
	}
}

// topLevelNames returns the names a file declares at top level: its
// functions, types, constants and variables.
func topLevelNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names[sp.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// receiverType returns the name of a receiver's or an embedded field's
// type, without pointer, package qualifier or type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
