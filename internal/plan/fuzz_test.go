package plan

import (
	"strings"
	"sync"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/lint"
	"docspanner/internal/slp"
	"docspanner/internal/vset"
)

// fuzzPrimPatterns is the fixed primitive pool the fuzz machine draws
// from: a mix of always-bound, branch-bound, anchored, and multi-
// variable spanners so every rewrite guard gets exercised.
var fuzzPrimPatterns = []string{
	"!x{a+}",
	"(!x{a}|b)",
	"a*!x{a}b*",
	"!x{a+}b!y{a+}",
	"!y{b+}",
	"(!x{a}|!y{b})",
	"(a|b)*!x{(a|b)}",
}

var fuzzPrims struct {
	once  sync.Once
	exprs []algebra.Expr
}

func fuzzPrim(t testing.TB, i int) algebra.Expr {
	fuzzPrims.once.Do(func() {
		for _, src := range fuzzPrimPatterns {
			fuzzPrims.exprs = append(fuzzPrims.exprs, prim(t, src))
		}
	})
	return fuzzPrims.exprs[i%len(fuzzPrims.exprs)]
}

// decodeExpr interprets data as a tiny stack machine building an
// algebra expression: opcode 0 pushes a primitive, 1–4 combine the
// stack with union/join/projection/selection, 5 terminates and leaves
// the rest of the input to become the document. Inputs that underflow
// the stack or build nothing yield (nil, ...).
func decodeExpr(t testing.TB, data []byte) (algebra.Expr, []byte) {
	var stack []algebra.Expr
	ops := 0
	for i := 0; i < len(data); i++ {
		if ops++; ops > 24 {
			return finishExpr(stack), data[i:]
		}
		b := data[i]
		switch b % 6 {
		case 0:
			stack = append(stack, fuzzPrim(t, int(b/6)))
		case 1:
			if len(stack) < 2 {
				continue
			}
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], algebra.Union{L: l, R: r})
		case 2:
			if len(stack) < 2 {
				continue
			}
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], algebra.Join{L: l, R: r})
		case 3:
			if len(stack) == 0 {
				continue
			}
			sub := stack[len(stack)-1]
			vars := sub.Vars()
			if len(vars) == 0 {
				continue
			}
			stack[len(stack)-1] = algebra.Project{Sub: sub, Keep: vars[:1+int(b/6)%len(vars)]}
		case 4:
			if len(stack) == 0 {
				continue
			}
			sub := stack[len(stack)-1]
			vars := sub.Vars()
			if len(vars) < 2 {
				continue
			}
			stack[len(stack)-1] = algebra.SelectEq{Sub: sub, Z: vars[:2]}
		case 5:
			return finishExpr(stack), data[i+1:]
		}
	}
	return finishExpr(stack), nil
}

func finishExpr(stack []algebra.Expr) algebra.Expr {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// subExprAt resolves a spanlint position path ("$", "$.L", "$.R",
// "$.Sub", ...) to the subexpression it names, or nil when the path
// does not fit the tree.
func subExprAt(e algebra.Expr, pos string) algebra.Expr {
	segs := strings.Split(pos, ".")
	if segs[0] != "$" {
		return nil
	}
	for _, seg := range segs[1:] {
		switch m := e.(type) {
		case algebra.Union:
			e = map[string]algebra.Expr{"L": m.L, "R": m.R}[seg]
		case algebra.Join:
			e = map[string]algebra.Expr{"L": m.L, "R": m.R}[seg]
		case algebra.Project:
			e = map[string]algebra.Expr{"Sub": m.Sub}[seg]
		case algebra.SelectEq:
			e = map[string]algebra.Expr{"Sub": m.Sub}[seg]
		default:
			return nil
		}
		if e == nil {
			return nil
		}
	}
	return e
}

// FuzzPlanRewrite cross-validates the whole rewrite pipeline: for every
// fuzz input — decoded into a random algebra expression and a random
// document over {a,b} — the fully rewritten plan (with and without the
// refl rewrite) and the compressed backend must agree exactly with the
// naive bottom-up evaluation, under both semantics. It also checks that
// spanlint's Error findings are sound: every subexpression they call
// provably empty evaluates to ∅ on the document.
func FuzzPlanRewrite(f *testing.F) {
	f.Add([]byte{0, 6, 1, 5, 97, 98, 97})       // union of two prims on "aba"
	f.Add([]byte{0, 12, 2, 3, 5, 97, 97})       // projected join on "aa"
	f.Add([]byte{18, 4, 5, 97, 97, 98, 97, 97}) // selection chain on "aabaa"
	f.Add([]byte{0, 0, 1, 6, 1, 5, 98, 97})     // duplicate branches on "ba"
	f.Add([]byte{24, 30, 2, 36, 1, 4, 5, 97})   // mixed tree on "a"
	// Joins where an operand can leave the shared x unassigned, on "b":
	// seleq(x,y; join(union(!y{b+}; !x{a+}); (a|b)*!x{(a|b)})), and,
	// schemaless, join((!x{a}|b); join((a|b)*!x{(a|b)}; !y{b+})).
	f.Add([]byte{24, 0, 1, 36, 2, 4, 5, 97})
	f.Add([]byte{6, 36, 24, 2, 2, 5, 97})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		expr, rest := decodeExpr(t, data)
		if expr == nil {
			return
		}
		if len(rest) > 12 {
			rest = rest[:12]
		}
		doc := make([]byte, len(rest))
		for i, b := range rest {
			doc[i] = "ab"[b%2]
		}
		for _, schemaless := range []bool{false, true} {
			sem := vset.Functional
			if schemaless {
				sem = vset.Schemaless
			}
			want := expr.Eval(doc, sem)
			for _, d := range lint.Expr(expr, schemaless) {
				if d.Severity != lint.Error {
					continue
				}
				sub := subExprAt(expr, d.Pos)
				if sub == nil {
					t.Fatalf("expr %s: %v names no subexpression", algebra.String(expr), d)
				}
				if got := sub.Eval(doc, sem); got.Len() != 0 {
					t.Fatalf("expr %s doc %q schemaless=%v: %v, but %s evaluates to %v",
						algebra.String(expr), doc, schemaless, d, algebra.String(sub), got)
				}
			}
			for _, opts := range []Options{
				{Schemaless: schemaless},
				{Schemaless: schemaless, ReflRewrite: true},
			} {
				pl := New(expr, opts)
				for _, in := range []struct {
					kind string
					src  Source
				}{{"text", Text(doc)}, {"SLP", SLP(slp.FromBytes(doc), nil)}} {
					if got := pl.Eval(in.src); !got.Equal(want) {
						t.Fatalf("expr %s doc %q schemaless=%v refl=%v (%s):\n got %v\nwant %v\nplan:\n%s",
							algebra.String(expr), doc, schemaless, opts.ReflRewrite, in.kind, got, want, pl.Explain())
					}
				}
			}
		}
	})
}
