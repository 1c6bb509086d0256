// Package vetters implements spanvet: a suite of repository-specific
// static analyzers that enforce, at compile time, the runtime contracts
// the engine's hot paths rely on — the aliasing panics of the
// BoolMatrix Into-kernels, the sync.Pool buffer discipline of the
// serving layer, the flush-error abort contract of /stream, the
// request-context flow into Eval*/Enumerate*/Count*, and the lock
// ordering of the 64-shard slpmatch caches.
//
// The analyzers follow the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Reportf) but are implemented on the standard
// library's go/ast and go/types only, so the tool builds with zero
// third-party dependencies: packages are enumerated with `go list
// -json -deps` and type-checked from source (see load.go). Each
// analyzer documents exactly what it flags; a finding can be silenced
// with a trailing or preceding
//
//	//spanvet:ignore            (silences every analyzer on that line)
//	//spanvet:ignore aliasinto  (silences the named analyzers)
//
// comment, mirroring //lint:ignore. Suppressions are deliberate and
// visible in review — prefer fixing the code.
package vetters

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects the package in Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer (spanvet -run, suppression comments,
	// finding output).
	Name string
	// Doc is the one-paragraph description shown by spanvet -list.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// A Pass is one (analyzer, package) execution: the syntax, the
// type-checked package, and the reporting sink.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	ignores  map[string]map[int][]string // filename → line → analyzer names ("" = all)
	diags    *[]Diagnostic
}

// Diagnostic is one spanvet finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the go-vet style used by cmd/spanvet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless a //spanvet:ignore comment on
// the same or the preceding line suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.ignores[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == "" || name == p.analyzer.Name {
				return true
			}
		}
	}
	return false
}

// ObjectOf resolves an identifier to its object (uses or defs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// TypeOf returns the static type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// collectIgnores scans the files' comments for //spanvet:ignore
// directives and indexes them by file and line.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "spanvet:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "spanvet:ignore"))
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					out[pos.Filename] = lines
				}
				if rest == "" {
					lines[pos.Line] = append(lines[pos.Line], "")
					continue
				}
				for _, name := range strings.Split(rest, ",") {
					lines[pos.Line] = append(lines[pos.Line], strings.TrimSpace(name))
				}
			}
		}
	}
	return out
}

// All returns every spanvet analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AliasInto,
		PoolEscape,
		ErrFlush,
		CtxFlow,
		LockShard,
	}
}

// ByName resolves a comma-separated analyzer list; unknown names error
// with the valid set.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			valid := make([]string, len(all))
			for i, a := range all {
				valid[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	return out, nil
}

// Run executes the analyzers over one loaded package and returns the
// findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a,
			ignores:  ignores,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// --- small AST/type helpers shared by the analyzers ---

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// sameExpr conservatively reports whether two expressions are
// guaranteed to denote the same storage: identical identifiers (same
// object), identical selector chains, identical index expressions over
// the same base with provably equal indexes, and address/deref wrappers
// thereof. Function calls never compare equal (each call may yield a
// fresh value).
func sameExpr(info *types.Info, a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := info.ObjectOf(av), info.ObjectOf(bv)
		return ao != nil && ao == bo
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		return av.Sel.Name == bv.Sel.Name && sameExpr(info, av.X, bv.X)
	case *ast.IndexExpr:
		bv, ok := b.(*ast.IndexExpr)
		if !ok {
			return false
		}
		return sameExpr(info, av.X, bv.X) && sameIndex(info, av.Index, bv.Index)
	case *ast.StarExpr:
		bv, ok := b.(*ast.StarExpr)
		if !ok {
			return false
		}
		return sameExpr(info, av.X, bv.X)
	case *ast.UnaryExpr:
		bv, ok := b.(*ast.UnaryExpr)
		if !ok || av.Op != bv.Op {
			return false
		}
		return sameExpr(info, av.X, bv.X)
	}
	return false
}

// sameIndex compares index expressions: equal constants, or the same
// expression per sameExpr.
func sameIndex(info *types.Info, a, b ast.Expr) bool {
	av, aok := info.Types[a]
	bv, bok := info.Types[b]
	if aok && bok && av.Value != nil && bv.Value != nil {
		return av.Value.String() == bv.Value.String()
	}
	return sameExpr(info, a, b)
}

// calleeName returns the bare name a call invokes: the selector's field
// name for method/package calls, the identifier for direct calls, ""
// otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isPkgFunc reports whether the call invokes the named function of the
// named package (e.g. context.Background).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// namedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// exprString renders an expression compactly for messages (best-effort;
// falls back to the type name).
func exprString(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.BasicLit:
		return v.Value
	case *ast.BinaryExpr:
		return exprString(v.X) + v.Op.String() + exprString(v.Y)
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	}
	return fmt.Sprintf("%T", e)
}
