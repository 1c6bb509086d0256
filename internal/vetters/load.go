package vetters

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors holds the package's own type-check errors. Analysis
	// over a package with type errors is unreliable; cmd/spanvet treats
	// them as load failures.
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader uses.
type listedPkg struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns (relative to dir, the
// module root) with `go list -json -deps` and type-checks the whole
// graph from source in dependency order, using only the standard
// library: no export data, no network, no third-party loader. Only the
// packages matched by the patterns are returned; their dependencies are
// type-checked (without syntax retention) so that method sets and
// signatures resolve exactly.
//
// The go list run pins CGO_ENABLED=0 so the file sets of cgo-using
// dependencies (net, ...) stay self-contained pure-Go; any residual
// type errors in dependencies are tolerated — go/types produces a
// usable (if incomplete) package — while type errors in the analyzed
// packages themselves are reported on the returned Package. A matched
// package that go list itself reports an error for fails the load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := &graphImporter{pkgs: map[string]*types.Package{"unsafe": types.Unsafe}}
	var out []*Package
	for _, m := range metas {
		if m.ImportPath == "unsafe" {
			continue
		}
		if m.Error != nil {
			if m.DepOnly {
				continue
			}
			// A target go list could not load (a pattern naming no
			// package, a missing import) would type-check as an empty
			// package and analyze clean.
			return nil, fmt.Errorf("package %s: %s", m.ImportPath, m.Error.Err)
		}
		target := !m.DepOnly && !m.Standard
		mode := parser.SkipObjectResolution
		if target {
			mode |= parser.ParseComments
		}
		var files []*ast.File
		for _, name := range m.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, mode)
			if err != nil {
				if target {
					return nil, fmt.Errorf("parse %s: %w", name, err)
				}
				continue
			}
			files = append(files, af)
		}

		var info *types.Info
		if target {
			info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Implicits:  map[ast.Node]types.Object{},
				Scopes:     map[ast.Node]*types.Scope{},
			}
		}
		var typeErrs []error
		conf := types.Config{
			Importer:         imp,
			FakeImportC:      true,
			IgnoreFuncBodies: false,
			Error:            func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, _ := conf.Check(m.ImportPath, fset, files, info)
		imp.pkgs[m.ImportPath] = tpkg
		if target {
			out = append(out, &Package{
				ImportPath: m.ImportPath,
				Dir:        m.Dir,
				Fset:       fset,
				Files:      files,
				Types:      tpkg,
				Info:       info,
				TypeErrors: typeErrs,
			})
		}
	}
	return out, nil
}

// goList runs `go list -json -deps` and decodes the package stream,
// which arrives in dependency order (dependencies before dependents) —
// exactly the type-checking order Load needs.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var metas []listedPkg
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var m listedPkg
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// graphImporter resolves imports against the packages type-checked so
// far. The stdlib vendors golang.org/x dependencies under "vendor/";
// source files import them by the unvendored path, so resolution falls
// back to the vendored entry.
type graphImporter struct {
	pkgs map[string]*types.Package
}

func (g *graphImporter) Import(path string) (*types.Package, error) {
	if p, ok := g.pkgs[path]; ok {
		return p, nil
	}
	if p, ok := g.pkgs["vendor/"+path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not loaded (not a dependency of the analyzed packages)", path)
}

// LoadDir type-checks a single directory of Go files as one package —
// the vettest harness's entry point for analysistest-style testdata
// packages, which live outside the module's package graph. Imports are
// resolved by loading the imported paths (and their dependencies)
// through the same source-level pipeline.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		af, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
		for _, imp := range af.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	imp := &graphImporter{pkgs: map[string]*types.Package{"unsafe": types.Unsafe}}
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		metas, err := goList(dir, paths)
		if err != nil {
			return nil, err
		}
		for _, m := range metas {
			if m.ImportPath == "unsafe" {
				continue
			}
			var depFiles []*ast.File
			for _, name := range m.GoFiles {
				af, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					continue
				}
				depFiles = append(depFiles, af)
			}
			conf := types.Config{Importer: imp, FakeImportC: true, Error: func(error) {}}
			tpkg, _ := conf.Check(m.ImportPath, fset, depFiles, nil)
			imp.pkgs[m.ImportPath] = tpkg
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	name := files[0].Name.Name
	tpkg, _ := conf.Check(name, fset, files, info)
	return &Package{
		ImportPath: name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}
