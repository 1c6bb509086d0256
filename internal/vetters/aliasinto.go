package vetters

import (
	"go/ast"
)

// AliasInto is the static complement of the runtime aliasing panics in
// the BoolMatrix Into-kernels (internal/automata): MulInto requires the
// destination (receiver) to be distinct from both source operands, and
// ApplyRightInto requires dst and v to be distinct slices — the kernels
// clear the destination and then read the sources while writing it, so
// an aliased call would silently compute garbage (which is why the
// kernels panic at runtime). This analyzer flags call sites
// where the destination provably aliases a source: the same variable,
// field chain, or index expression. The check is name+arity based, so
// it guards any implementation of the kernel contract, not just the
// one in internal/automata.
var AliasInto = &Analyzer{
	Name: "aliasinto",
	Doc: "flags MulInto calls whose receiver (the destination) aliases a source operand, " +
		"and ApplyRightInto calls where dst aliases v; " +
		"such calls panic at runtime (internal/automata aliasing contract)",
	Run: runAliasInto,
}

// intoKernels maps the kernel method names to their argument count; the
// receiver is the destination for the matrix kernels, the first
// argument for the vector kernels.
var intoKernels = map[string]struct {
	args     int
	dstIsArg bool
}{
	"MulInto":        {args: 2},
	"ApplyRightInto": {args: 2, dstIsArg: true},
}

func runAliasInto(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			k, ok := intoKernels[sel.Sel.Name]
			if !ok || len(call.Args) != k.args {
				return true
			}
			// Method calls only: a selector that resolves to a plain
			// package function is not a kernel.
			if s, found := p.Info.Selections[sel]; !found || s == nil {
				return true
			}
			if k.dstIsArg {
				if sameExpr(p.Info, call.Args[0], call.Args[1]) {
					p.Reportf(call.Pos(),
						"%s: dst %s aliases the source vector; the kernel writes dst while reading it (runtime panic)",
						sel.Sel.Name, exprString(call.Args[0]))
				}
				return true
			}
			for _, arg := range call.Args {
				if sameExpr(p.Info, sel.X, arg) {
					p.Reportf(call.Pos(),
						"%s: destination %s aliases source operand %s; the kernel writes the destination while reading the sources (runtime panic)",
						sel.Sel.Name, exprString(sel.X), exprString(arg))
				}
			}
			return true
		})
	}
}
