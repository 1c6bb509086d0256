package lint_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/lint"
	"docspanner/internal/refl"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
)

// pat compiles a pattern into a primitive expression carrying its AST,
// exactly as the docspanner facade does.
func pat(t *testing.T, src string) algebra.Prim {
	t.Helper()
	ast, err := regex.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := regex.Compile(ast, regex.Options{})
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return algebra.Prim{A: a, Src: ast}
}

func vs(vars ...string) spans.VarSet {
	out := make([]spans.Var, len(vars))
	for i, v := range vars {
		out[i] = spans.Var(v)
	}
	return spans.NewVarSet(out...)
}

func codes(ds []lint.Diagnostic) map[string]int {
	out := map[string]int{}
	for _, d := range ds {
		out[d.Code]++
	}
	return out
}

// emptyPrim is an unsatisfiable primitive: a fresh automaton has a single
// non-final state, so its language is empty.
func emptyPrim() algebra.Prim {
	return algebra.Prim{A: automata.NewNFA(vs("x"))}
}

// deadStatePrim returns a satisfiable primitive with one unreachable and
// one non-coaccessible state.
func deadStatePrim(t *testing.T) algebra.Prim {
	p := pat(t, "!x{a}")
	n := p.A.Clone()
	n.AddState()                    // unreachable
	n.AddEps(n.Start, n.AddState()) // reachable, cannot accept
	return algebra.Prim{A: n, Src: p.Src}
}

// TestDiagnosticCodes drives every code through a triggering and a
// non-triggering input.
func TestDiagnosticCodes(t *testing.T) {
	cases := []struct {
		name    string
		build   func(t *testing.T) algebra.Expr
		code    string
		sev     lint.Severity // checked only when want is true
		want    bool
		wantPos string // checked only when want is true and non-empty
	}{
		{
			name:  "SP001 triggers on an empty-language primitive",
			build: func(t *testing.T) algebra.Expr { return emptyPrim() },
			code:  lint.CodeUnsatisfiable, sev: lint.Error, want: true, wantPos: "$",
		},
		{
			name:  "SP001 silent on a satisfiable pattern",
			build: func(t *testing.T) algebra.Expr { return pat(t, "!x{a+}") },
			code:  lint.CodeUnsatisfiable,
		},
		{
			name:  "SP002 triggers on dead automaton states",
			build: func(t *testing.T) algebra.Expr { return deadStatePrim(t) },
			code:  lint.CodeDeadStates, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name:  "SP002 silent on a trim compiled pattern",
			build: func(t *testing.T) algebra.Expr { return pat(t, "!x{a+}b?") },
			code:  lint.CodeDeadStates,
		},
		{
			name: "SP003 triggers on a disjoint-schema join (cartesian product)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Join{L: pat(t, "!x{a}b"), R: pat(t, "a!y{b}")}
			},
			code: lint.CodeDegenerateJoin, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP003 triggers on a provably empty join",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Join{L: pat(t, "!x{a}"), R: pat(t, "!x{b}")}
			},
			code: lint.CodeDegenerateJoin, sev: lint.Error, want: true, wantPos: "$",
		},
		{
			name: "SP003 silent on a satisfiable shared-variable join",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Join{L: pat(t, "!x{a}b"), R: pat(t, "!x{a}[ab]")}
			},
			code: lint.CodeDegenerateJoin,
		},
		{
			name: "SP003 silent on a join whose operand may leave the shared variable unassigned",
			build: func(t *testing.T) algebra.Expr {
				// Schemaless, the b-branch's tuple joins with v's binding.
				return algebra.Join{L: pat(t, "(!v{a}|b)"), R: pat(t, "!v{b}")}
			},
			code: lint.CodeDegenerateJoin,
		},
		{
			name: "SP003 silent on a cartesian join related by an enclosing selection",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{
					Sub: algebra.Join{L: pat(t, "!x{a+}b"), R: pat(t, "a+!y{b}")},
					Z:   vs("x", "y"),
				}
			},
			code: lint.CodeDegenerateJoin,
		},
		{
			name: "SP003 silent on a boolean-filter join (one side binds nothing)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Join{L: pat(t, "!x{a}b"), R: pat(t, "ab")}
			},
			code: lint.CodeDegenerateJoin,
		},
		{
			name: "SP004 triggers on keeping an unbound variable",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Project{Sub: pat(t, "!x{a}"), Keep: vs("x", "y")}
			},
			code: lint.CodeDegenerateProj, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP004 triggers on dropping every variable",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Project{Sub: pat(t, "!x{a}"), Keep: vs()}
			},
			code: lint.CodeDegenerateProj, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP004 silent on a proper projection",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Project{Sub: pat(t, "!x{a}!y{b}"), Keep: vs("x")}
			},
			code: lint.CodeDegenerateProj,
		},
		{
			name: "SP005 triggers on a single-variable selection (no-op)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{a+}"), Z: vs("x")}
			},
			code: lint.CodeDegenerateSel, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP005 triggers on selecting a never-bound variable (always empty)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{a+}"), Z: vs("x", "y")}
			},
			code: lint.CodeDegenerateSel, sev: lint.Error, want: true, wantPos: "$",
		},
		{
			name: "SP005 triggers on never-jointly-bound variables (always empty)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{
					Sub: algebra.Union{L: pat(t, "!x{a}"), R: pat(t, "!y{b}")},
					Z:   vs("x", "y"),
				}
			},
			code: lint.CodeDegenerateSel, sev: lint.Error, want: true, wantPos: "$",
		},
		{
			name: "SP005 silent when a union leaves a join variable unassigned",
			build: func(t *testing.T) algebra.Expr {
				// The !y{b} branch joins with !x{b}, binding x and y.
				return algebra.SelectEq{
					Sub: algebra.Join{
						L: algebra.Union{L: pat(t, "!y{b}"), R: pat(t, "!x{b}")},
						R: pat(t, "!x{b}"),
					},
					Z: vs("x", "y"),
				}
			},
			code: lint.CodeDegenerateSel,
		},
		{
			name: "SP005 triggers on provably always-equal spans (no-op)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{!y{a+}}"), Z: vs("x", "y")}
			},
			code: lint.CodeDegenerateSel, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP005 silent on a genuine selection",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{a+}b!y{a+}"), Z: vs("x", "y")}
			},
			code: lint.CodeDegenerateSel,
		},
		{
			name: "SP006 triggers on an overlap-producing join",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Join{L: pat(t, "!x{ab}[abc]"), R: pat(t, "[abc]!y{bc}")}
			},
			code: lint.CodeNonHierarchical, sev: lint.Info, want: true, wantPos: "$",
		},
		{
			name:  "SP006 silent on a regex formula (hierarchical by construction)",
			build: func(t *testing.T) algebra.Expr { return pat(t, "!x{a+}b!y{c+}") },
			code:  lint.CodeNonHierarchical,
		},
		{
			name: "SP007 triggers on a refl-translatable core query",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{a+}b!y{a+}"), Z: vs("x", "y")}
			},
			code: lint.CodeReflRewrite, sev: lint.Info, want: true, wantPos: "$",
		},
		{
			name: "SP007 silent on nested selection variables (not refl-expressible)",
			build: func(t *testing.T) algebra.Expr {
				return algebra.SelectEq{Sub: pat(t, "!x{a*!y{a+}}"), Z: vs("x", "y")}
			},
			code: lint.CodeReflRewrite,
		},
		{
			name: "SP008 triggers on equivalent union branches",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Union{L: pat(t, "!x{a}"), R: pat(t, "!x{a}")}
			},
			code: lint.CodeDuplicateBranch, sev: lint.Warning, want: true, wantPos: "$",
		},
		{
			name: "SP008 silent on distinct union branches",
			build: func(t *testing.T) algebra.Expr {
				return algebra.Union{L: pat(t, "!x{a}"), R: pat(t, "!x{b}")}
			},
			code: lint.CodeDuplicateBranch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := lint.Expr(tc.build(t), false)
			var hits []lint.Diagnostic
			for _, d := range ds {
				if d.Code == tc.code {
					hits = append(hits, d)
				}
			}
			if !tc.want {
				if len(hits) > 0 {
					t.Fatalf("unexpected %s diagnostics: %v (all: %v)", tc.code, hits, ds)
				}
				return
			}
			if len(hits) == 0 {
				t.Fatalf("expected a %s diagnostic, got %v", tc.code, ds)
			}
			found := false
			for _, d := range hits {
				if d.Severity == tc.sev && (tc.wantPos == "" || d.Pos == tc.wantPos) {
					found = true
				}
				if d.Message == "" {
					t.Errorf("diagnostic %v has an empty message", d)
				}
			}
			if !found {
				t.Fatalf("no %s hit with severity %v at %q; got %v", tc.code, tc.sev, tc.wantPos, hits)
			}
		})
	}
}

// TestNestedPositions pins the path scheme: a diagnostic deep in the tree
// reports the path to its node.
func TestNestedPositions(t *testing.T) {
	e := algebra.Union{
		L: pat(t, "!x{a}"),
		R: algebra.Project{Sub: pat(t, "!x{a}"), Keep: vs("q")},
	}
	ds := lint.Expr(e, false)
	want := map[string]string{lint.CodeDegenerateProj: "$.R"}
	for code, pos := range want {
		ok := false
		for _, d := range ds {
			if d.Code == code && d.Pos == pos {
				ok = true
			}
		}
		if !ok {
			t.Errorf("expected %s at %s, got %v", code, pos, ds)
		}
	}
}

// TestCleanQueryHasNoDiagnostics pins that an idiomatic query is
// lint-clean, so the CI corpus check is meaningful.
func TestCleanQueryHasNoDiagnostics(t *testing.T) {
	e := algebra.Project{
		Sub:  algebra.Join{L: pat(t, "!x{[a-z]+}=!v{[0-9]+}"), R: pat(t, "!x{key}=[0-9]+")},
		Keep: vs("v", "x"),
	}
	if ds := lint.Expr(e, false); len(ds) != 0 {
		t.Fatalf("expected no diagnostics, got %v", ds)
	}
}

// TestReflLint covers the refl-spanner entry point.
func TestReflLint(t *testing.T) {
	ast, err := regex.Parse("!x{a+}b&x")
	if err != nil {
		t.Fatal(err)
	}
	a, err := regex.Compile(ast, regex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := refl.New(a)
	if err != nil {
		t.Fatal(err)
	}
	if ds := lint.Refl(rs); len(ds) != 0 {
		t.Fatalf("satisfiable refl-spanner should be clean, got %v", ds)
	}
}

// TestJSONRoundTrip pins that diagnostics survive encoding/json both ways.
func TestJSONRoundTrip(t *testing.T) {
	ds := lint.Expr(algebra.SelectEq{Sub: pat(t, "!x{a+}"), Z: vs("x")}, true)
	if len(ds) == 0 {
		t.Fatal("need at least one diagnostic for the round trip")
	}
	blob, err := json.Marshal(ds)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []lint.Diagnostic
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatalf("round trip changed diagnostics:\n  in:  %v\n  out: %v", ds, back)
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []lint.Severity{lint.Info, lint.Warning, lint.Error} {
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %v: %v", s, err)
		}
		var back lint.Severity
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, blob, back)
		}
		parsed, err := lint.ParseSeverity(s.String())
		if err != nil || parsed != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), parsed, err)
		}
	}
	if _, err := json.Marshal(lint.Severity(0)); err == nil {
		t.Error("marshaling the zero severity should fail")
	}
	var s lint.Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &s); err == nil {
		t.Error("unmarshaling an unknown severity should fail")
	}
}

func TestCodesListing(t *testing.T) {
	cs := lint.Codes()
	if len(cs) != 10 {
		t.Fatalf("want 10 codes, got %d", len(cs))
	}
	for i, c := range cs {
		want := fmt.Sprintf("SP%03d", i+1)
		if c.Code != want {
			t.Errorf("code %d = %s, want %s", i, c.Code, want)
		}
		if c.Title == "" {
			t.Errorf("code %s has no title", c.Code)
		}
	}
}

// TestConcurrentLint exercises the concurrency contract: one shared
// expression linted from many goroutines (run under -race).
func TestConcurrentLint(t *testing.T) {
	e := algebra.SelectEq{Sub: pat(t, "!x{a+}b!y{a+}"), Z: vs("x", "y")}
	want := lint.Expr(e, false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := lint.Expr(e, false); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent lint diverged: %v vs %v", got, want)
			}
		}()
	}
	wg.Wait()
}
