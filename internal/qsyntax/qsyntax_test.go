package qsyntax

import (
	"strings"
	"testing"

	"docspanner"
)

var ab = docspanner.Options{Alphabet: []byte("ab")}

func TestParse(t *testing.T) {
	x, y := docspanner.Var("x"), docspanner.Var("y")
	xs := func(pairs ...int) *docspanner.Relation { // spans of x, as begin/end pairs
		r := docspanner.NewRelation()
		for i := 0; i < len(pairs); i += 2 {
			r.Add(docspanner.Tuple{x: docspanner.NewSpan(pairs[i], pairs[i+1])})
		}
		return r
	}
	for _, tc := range []struct {
		name, src, doc string
		vars           []docspanner.Var
		want           *docspanner.Relation
	}{
		{"raw pattern", ".*!x{ab}.*", "abab", []docspanner.Var{x}, xs(1, 3, 3, 5)},
		{"raw pattern, surrounding blanks", "  .*!x{ab}.* ", "ab", []docspanner.Var{x}, xs(1, 3)},
		{"raw refl pattern", "!x{(a|b)+}&x", "abab", []docspanner.Var{x}, xs(1, 3)},
		{"grouped keyword is a pattern", "(a)!x{b}", "ab", []docspanner.Var{x}, xs(2, 3)},
		{"union", "union(.*!x{ab}.*; .*!x{ba}.*)", "aba", []docspanner.Var{x}, xs(1, 3, 2, 4)},
		{"join", "join(.*!x{ab}.*; .*!y{ba}.*)", "aba", []docspanner.Var{x, y},
			docspanner.NewRelation(docspanner.Tuple{x: docspanner.NewSpan(1, 3), y: docspanner.NewSpan(2, 4)})},
		{"project", "project(x; !x{a}!y{b})", "ab", []docspanner.Var{x}, xs(1, 2)},
		{"project onto nothing", "project(; !x{a}b)", "ab", nil, docspanner.NewRelation(docspanner.Tuple{})},
		{"seleq", "seleq(x,y; !x{a+}b!y{a+})", "aabaa", []docspanner.Var{x, y},
			docspanner.NewRelation(docspanner.Tuple{x: docspanner.NewSpan(1, 3), y: docspanner.NewSpan(4, 6)})},
		{"seleq, blanks in the list", "seleq( x , y ; !x{a+}b!y{a+})", "aba", []docspanner.Var{x, y},
			docspanner.NewRelation(docspanner.Tuple{x: docspanner.NewSpan(1, 2), y: docspanner.NewSpan(3, 4)})},
		{"minus", "minus(.*!x{a|b}.*; .*!x{b}.*)", "ab", []docspanner.Var{x}, xs(1, 2)},
		{"nesting", "project(x; join(union(.*!x{ab}.*; .*!x{ba}.*); .*!y{bb}.*))", "abba",
			[]docspanner.Var{x}, xs(1, 3, 3, 5)},
		{"separators inside classes, groups and escapes", `union(!x{[;)]}a; (a|b)!x{\;})`, ";a",
			[]docspanner.Var{x}, xs(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.src, docspanner.Options{Alphabet: []byte("ab;)")})
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.src, err)
			}
			if got := q.Vars(); !got.Equal(docspanner.NewVarSet(tc.vars...)) {
				t.Errorf("Vars = %v, want %v", got, tc.vars)
			}
			if got := q.Eval([]byte(tc.doc)); !got.Equal(tc.want) {
				t.Errorf("Eval(%q) = %v, want %v", tc.doc, got, tc.want)
			}
			if got, want := q.Eval([]byte(tc.doc)), q.EvalNaive([]byte(tc.doc)); !got.Equal(want) {
				t.Errorf("Eval(%q) = %v, EvalNaive = %v", tc.doc, got, want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"bad raw pattern", "!x{", ""},
		{"unbounded refl pattern", "!x{a+}(&x)*", "AutoToCore"},
		{"trailing input", "union(!x{a}; !x{b}) trailing", "trailing input at offset"},
		{"union without separator", "union(!x{a})", `union: expected ";"`},
		{"union unclosed", "union(!x{a}; !x{b}", `union: expected ")"`},
		{"join empty operand", "join(!x{a}; )", "empty pattern operand"},
		{"empty left operand", "union(; !x{a})", "empty pattern operand"},
		{"bad pattern operand", "join(!x{a}; !y{)", `pattern "!y{"`},
		{"bad nested operand", "union(join(!x{a}); !x{b})", `join: expected ";"`},
		{"project without separator", "project(x)", `project: expected ";"`},
		{"project unclosed", "project(x; !x{a}", `project: expected ")"`},
		{"project bad operand", "project(x; !x{)", "pattern"},
		{"seleq empty variable", "seleq(x,,y; !x{a}!y{a})", "seleq: empty variable name"},
		{"seleq without separator", "seleq(x,y)", `seleq: expected ";"`},
		{"minus without separator", "minus(!x{a})", `minus: expected ";"`},
		{"minus unclosed", "minus(!x{a}; !x{b}", `minus: expected ")"`},
		{"minus bad left", "minus(!x{; !x{b})", "pattern"},
		{"minus bad right", "minus(!x{a}; )", "empty pattern operand"},
		{"minus of a refl-spanner", "minus(!x{a}&x; !x{a}a)", "minus: "},
		{"refl operand", "union(!x{a}&x; !x{a}a)", "regular spanners"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.src, ab)
			if err == nil {
				t.Fatalf("Parse(%q) = %v, want an error", tc.src, q)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Parse(%q) error %q does not mention %q", tc.src, err, tc.want)
			}
		})
	}
}

func TestIsExpr(t *testing.T) {
	for src, want := range map[string]bool{
		"union(a; b)":   true,
		"  join(a; b)":  true,
		"project(x; a)": true,
		"seleq(x; a)":   true,
		"minus(a; b)":   true,
		"(union(a))":    false,
		"union":         false,
		"unions(a)":     false,
		"!x{a}":         false,
		"":              false,
	} {
		if got := IsExpr(src); got != want {
			t.Errorf("IsExpr(%q) = %v, want %v", src, got, want)
		}
	}
}

// FuzzParse: no input panics the parser, and whatever parses evaluates
// on a short document without panicking and in agreement with the
// planner-free reference.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		".*!x{ab}.*", "!x{(a|b)+}&x", "union(.*!x{ab}.*; .*!x{ba}.*)", "join(.*!x{a}.*; .*!y{b}.*)",
		"project(x; !x{a}!y{b})", "seleq(x,y; !x{a+}b!y{a+})", "minus(.*!x{a|b}.*; .*!x{b}.*)",
		"project(x; join(union(!x{ab}; !x{ba}); .*!y{b}.*))", `union(!x{[;)]}a; (a|b)!x{\;})`,
		"union(", "project(,; a)", "seleq(x; ", "minus(a; b) c", "((((", "join(a;b;c)", "union(a\\",
	} {
		f.Add(seed)
	}
	doc := []byte("abbaab")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64 {
			return // keeps determinization of what parses small
		}
		q, err := Parse(src, ab)
		if err != nil {
			return
		}
		if got, want := q.Eval(doc), q.EvalNaive(doc); !got.Equal(want) {
			t.Fatalf("Parse(%q): Eval %v, EvalNaive %v\nplan:\n%s", src, got, want, q.Explain())
		}
	})
}
