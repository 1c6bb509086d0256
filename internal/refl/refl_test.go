package refl

import (
	"strings"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

func mustSpanner(t *testing.T, src string, alphabet string) *Spanner {
	t.Helper()
	n, err := regex.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte(alphabet)})
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	s, err := New(a)
	if err != nil {
		t.Fatalf("New(%q): %v", src, err)
	}
	return s
}

func TestHasher(t *testing.T) {
	doc := []byte("abracadabra")
	h := NewHasher(doc)
	h.paranoid = true
	cases := []struct {
		i, j, l int
		want    bool
	}{
		{0, 7, 4, true},  // abra == abra
		{0, 7, 3, true},  // abr == abr
		{0, 1, 1, false}, // a vs b
		{0, 3, 1, true},  // a vs a
		{0, 0, 11, true},
		{1, 8, 3, true}, // bra == bra
		{0, 2, 4, false},
	}
	for _, c := range cases {
		if got := h.Eq(c.i, c.j, c.l); got != c.want {
			t.Errorf("Eq(%d,%d,%d) = %v, want %v", c.i, c.j, c.l, got, c.want)
		}
	}
	// Out of range.
	if h.Eq(0, 8, 4) {
		t.Error("out-of-range Eq = true")
	}
}

func TestReflEvalCopy(t *testing.T) {
	// ⟦!x{.*}&x⟧ is the copy language ww with x = the first half.
	s := mustSpanner(t, "!x{(a|b)*}&x", "ab")
	got := s.Eval([]byte("abab"), true)
	want := spans.NewRelation(spans.NewTuple("x", spans.S(1, 3)))
	if !got.Equal(want) {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	if s.Eval([]byte("aba"), true).Len() != 0 {
		t.Error("non-square document matched")
	}
	// Empty document: x = ε works.
	if s.Eval(nil, true).Len() != 1 {
		t.Error("empty document should match with x = ε")
	}
}

func TestReflEvalPaperExample(t *testing.T) {
	// α' from (3): a b* !x{(a|b)*} (b|c)* !y{&x} b*  — y must repeat x.
	s := mustSpanner(t, "ab*!x{(a|b)*}(b|c)*!y{&x}b*", "abc")
	doc := []byte("abbacabb")
	got := s.Eval(doc, true)
	// Expect x=ab at [3,5)... let's check a known tuple: a b b a c a b b
	// x = "ab"? positions: a(1) b(2) b(3) a(4) c(5) a(6) b(7) b(8).
	// Run: a, b*=bb? then x at [4,5)="a", (b|c)*="c", y=&x="a" at [6,7),
	// then b* = "bb". Tuple (x=[4,5), y=[6,7)).
	tup := spans.NewTuple("x", spans.S(4, 5), "y", spans.S(6, 7))
	if !got.Contains(tup) {
		t.Errorf("missing tuple %v in %v", tup, got)
	}
	// Every returned tuple must satisfy content equality.
	for _, tp := range got.Tuples() {
		cx := string(tp.Get("x").Content(doc))
		cy := string(tp.Get("y").Content(doc))
		if cx != cy {
			t.Errorf("tuple %v has x=%q y=%q", tp, cx, cy)
		}
	}
}

func TestReflVsCoreSelection(t *testing.T) {
	// The refl-spanner !x{Σ*} c !y{&x} must equal the core spanner
	// ς={x,y}(⟦!x{Σ*} c !y{Σ*}⟧) on every document.
	s := mustSpanner(t, "!x{(a|b)*}c!y{&x}", "abc")
	core := algebra.SelectEq{
		Sub: algebra.Prim{A: regex.MustCompile("!x{(a|b)*}c!y{(a|b)*}", regex.Options{Alphabet: []byte("abc")})},
		Z:   spans.NewVarSet("x", "y"),
	}
	for _, doc := range []string{"c", "acb", "abcab", "abcba", "bacba", "aacaa"} {
		got := s.Eval([]byte(doc), true)
		want := core.Eval([]byte(doc), vset.Functional)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n refl %v\n core %v", doc, got, want)
		}
	}
}

func TestReflNonEmpty(t *testing.T) {
	s := mustSpanner(t, "!x{(a|b)*}&x", "ab")
	if !s.NonEmpty([]byte("abab")) {
		t.Error("square document reported empty")
	}
	if s.NonEmpty([]byte("aab")) {
		t.Error("odd document reported non-empty")
	}
}

// TestEachYieldsATupleOnce: in the union of a refl-spanner with itself
// every assignment is reached in two final states; Each yields it once.
func TestEachYieldsATupleOnce(t *testing.T) {
	s := mustSpanner(t, "(a|b)*!x{(a|b)+}(a|b)*&x(a|b)*", "ab")
	twice, err := New(automata.Union(s.A, s.A))
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("abaabab")
	want := s.Eval(doc, true)
	got := spans.NewRelation()
	n := 0
	twice.Each(doc, true, nil, func(tu spans.Tuple) bool { n++; got.Add(tu); return true })
	if want.Len() == 0 || n != want.Len() || !got.Equal(want) {
		t.Errorf("%d tuples yielded, %v; want the %d of %v", n, got, want.Len(), want)
	}
}

func TestReflSatisfiableAndWitness(t *testing.T) {
	s := mustSpanner(t, "!x{ab}c&x", "abc")
	if !s.Satisfiable() {
		t.Error("not satisfiable")
	}
	doc, tup, ok := s.Witness()
	if !ok || string(doc) != "abcab" {
		t.Errorf("witness = %q, %v", doc, ok)
	}
	if tup.Get("x") != spans.S(1, 3) {
		t.Errorf("witness tuple = %v", tup)
	}
}

func TestReflModelCheck(t *testing.T) {
	s := mustSpanner(t, "!x{(a|b)+}c!y{&x}", "abc")
	doc := []byte("abcab")
	in := spans.NewTuple("x", spans.S(1, 3), "y", spans.S(4, 6))
	ok, err := s.ModelCheck(doc, in, true)
	if err != nil || !ok {
		t.Errorf("ModelCheck(in) = %v, %v", ok, err)
	}
	out := spans.NewTuple("x", spans.S(1, 2), "y", spans.S(4, 5))
	ok, err = s.ModelCheck(doc, out, true)
	if err != nil || ok {
		t.Errorf("ModelCheck(out) = %v, %v", ok, err)
	}
	// Cross-check against Eval on a larger document.
	doc2 := []byte("ababcabab")
	rel := s.Eval(doc2, true)
	for _, tp := range rel.Tuples() {
		if got, _ := s.ModelCheck(doc2, tp, true); !got {
			t.Errorf("ModelCheck rejects %v from Eval", tp)
		}
	}
	n := len(doc2)
	for xb := 1; xb <= n+1; xb++ {
		for xe := xb; xe <= n+1; xe++ {
			for yb := 1; yb <= n+1; yb++ {
				for ye := yb; ye <= n+1; ye++ {
					tp := spans.NewTuple("x", spans.S(xb, xe), "y", spans.S(yb, ye))
					got, err := s.ModelCheck(doc2, tp, true)
					if err != nil {
						t.Fatal(err)
					}
					if got != rel.Contains(tp) {
						t.Fatalf("ModelCheck(%v) = %v, Eval says %v", tp, got, rel.Contains(tp))
					}
				}
			}
		}
	}
}

func TestReflForwardReferenceRejected(t *testing.T) {
	n, err := regex.Parse("&x!x{a}")
	if err != nil {
		t.Fatal(err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(a); err == nil {
		t.Error("forward reference accepted")
	}
}

func TestReferenceBounded(t *testing.T) {
	bounded := mustSpanner(t, "!x{a+}b&x&x", "ab")
	if !bounded.ReferenceBounded() {
		t.Error("bounded spanner reported unbounded")
	}
	// The survey's unbounded example: a⁺ x▷b⁺◁x (a⁺x)* a⁺.
	unbounded := mustSpanner(t, "a+!x{b+}(a+&x)*a+", "ab")
	if unbounded.ReferenceBounded() {
		t.Error("unbounded spanner reported bounded")
	}
	if _, err := unbounded.ToCore(); err == nil {
		t.Error("ToCore accepted unbounded spanner")
	}
}

func TestToCoreEquivalence(t *testing.T) {
	cases := []struct {
		src  string
		docs []string
	}{
		{"!x{(a|b)*}c!y{&x}", []string{"c", "acb", "abcab", "bacba"}},
		{"!x{a+}&x", []string{"", "aa", "aaa", "aaaa"}},
		{"!x{a|b}(&x)?b", []string{"ab", "aab", "bbb", "abb"}},
		{"!x{a}b|!x{b}&x", []string{"ab", "bb", "ba"}},
	}
	for _, c := range cases {
		s := mustSpanner(t, c.src, "abc")
		core, err := s.ToCore()
		if err != nil {
			t.Errorf("%s: ToCore: %v", c.src, err)
			continue
		}
		for _, doc := range c.docs {
			want := s.Eval([]byte(doc), false)
			got := core.Eval([]byte(doc), vset.Schemaless)
			if !got.Equal(want) {
				t.Errorf("%s on %q:\n core %v\n refl %v", c.src, doc, got, want)
			}
		}
	}
}

func TestToCoreNoRefs(t *testing.T) {
	s := mustSpanner(t, "!x{ab}", "ab")
	core, err := s.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if algebra.HasSelections(core) {
		t.Error("reference-free spanner translated with selections")
	}
}

func TestFromRegexCoreSimple(t *testing.T) {
	// The α/α' example of Section 3.1.
	ast, err := regex.Parse("ab*!x{(a|b)*}(b|c)*!y{(a|b)*}b*")
	if err != nil {
		t.Fatal(err)
	}
	sels := []spans.VarSet{spans.NewVarSet("x", "y")}
	s, err := FromRegexCore(ast, sels, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	core := algebra.SelectEq{
		Sub: algebra.Prim{A: regex.MustCompile("ab*!x{(a|b)*}(b|c)*!y{(a|b)*}b*", regex.Options{Alphabet: []byte("abc")})},
		Z:   spans.NewVarSet("x", "y"),
	}
	for _, doc := range []string{"a", "ab", "abba", "abcab", "aabbabb", "abbacabb"} {
		got := s.Eval([]byte(doc), true)
		want := core.Eval([]byte(doc), vset.Functional)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n refl %v\n core %v", doc, got, want)
		}
	}
}

func TestFromRegexCoreBetaExample(t *testing.T) {
	// The β/β' example of Section 3.2: contents a(a|b)* and (a|b)*b must
	// be intersected, not just referenced.
	src := "ab*!x{a(a|b)*}(b|c)*!y{(a|b)*b}b*"
	ast, err := regex.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromRegexCore(ast, []spans.VarSet{spans.NewVarSet("x", "y")}, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	core := algebra.SelectEq{
		Sub: algebra.Prim{A: regex.MustCompile(src, regex.Options{Alphabet: []byte("abc")})},
		Z:   spans.NewVarSet("x", "y"),
	}
	for _, doc := range []string{"aabcab", "aabbab", "abacab", "aabab", "aabbcaabb"} {
		got := s.Eval([]byte(doc), true)
		want := core.Eval([]byte(doc), vset.Functional)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n refl %v\n core %v", doc, got, want)
		}
	}
}

func TestFromRegexCoreRejections(t *testing.T) {
	parse := func(src string) regex.Node {
		n, err := regex.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Nested selection variables.
	if _, err := FromRegexCore(parse("!x{a!y{b}c}"), []spans.VarSet{spans.NewVarSet("x", "y")}, []byte("abc")); err == nil {
		t.Error("nested selection accepted")
	}
	// Selection variable under alternation.
	if _, err := FromRegexCore(parse("(!x{a}|b)!y{a}"), []spans.VarSet{spans.NewVarSet("x", "y")}, []byte("ab")); err == nil {
		t.Error("alternation-bound selection accepted")
	}
	// Overlapping selection classes.
	if _, err := FromRegexCore(parse("!x{a}!y{a}!z{a}"),
		[]spans.VarSet{spans.NewVarSet("x", "y"), spans.NewVarSet("y", "z")}, []byte("a")); err == nil {
		t.Error("overlapping classes accepted")
	}
	// Unbound selection variable.
	if _, err := FromRegexCore(parse("!x{a}"), []spans.VarSet{spans.NewVarSet("x", "w")}, []byte("a")); err == nil {
		t.Error("unbound selection variable accepted")
	}
}

func TestFromRegexCoreMultipleClasses(t *testing.T) {
	src := "!x{a*}b!y{a*}b!u{b*}a!v{b*}"
	ast, err := regex.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sels := []spans.VarSet{spans.NewVarSet("x", "y"), spans.NewVarSet("u", "v")}
	s, err := FromRegexCore(ast, sels, []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	core := algebra.SelectEq{
		Sub: algebra.SelectEq{
			Sub: algebra.Prim{A: regex.MustCompile(src, regex.Options{Alphabet: []byte("ab")})},
			Z:   spans.NewVarSet("x", "y"),
		},
		Z: spans.NewVarSet("u", "v"),
	}
	for _, doc := range []string{"bba", "ababba", "aabaabbbabbb", "babbab"} {
		got := s.Eval([]byte(doc), true)
		want := core.Eval([]byte(doc), vset.Functional)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n refl %v\n core %v", doc, got, want)
		}
	}
}

func TestReflEvalChainedRefs(t *testing.T) {
	// y's binding contains a reference to x; a reference to y then copies
	// the dereferenced content (the survey's chained-substitution idea).
	s := mustSpanner(t, "!x{a+}!y{b&x}c&y", "abc")
	doc := []byte("abacba")
	got := s.Eval(doc, true)
	// x="a"=[1,2), y="ba"=[2,4), then c, then &y="ba" at [5,7).
	want := spans.NewRelation(spans.NewTuple("x", spans.S(1, 2), "y", spans.S(2, 4)))
	if !got.Equal(want) {
		t.Errorf("Eval = %v, want %v", got, want)
	}
}

func TestBackwardOnlyDiagnostic(t *testing.T) {
	n, err := regex.Parse("!x{a&y}!y{b}")
	if err != nil {
		t.Fatal(err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(a)
	if err == nil || !strings.Contains(err.Error(), "forward") {
		t.Errorf("expected forward-reference error, got %v", err)
	}
}

func TestSpannerVarsAndNaiveEq(t *testing.T) {
	s := mustSpanner(t, "!x{a+}&x", "ab")
	if !s.Vars().Equal(spans.NewVarSet("x")) {
		t.Errorf("Vars = %v", s.Vars())
	}
	// Naive comparison path agrees with hashed on Eval.
	doc := []byte("aaaa")
	hashed := s.Eval(doc, true)
	s.NaiveCompare = true
	naive := s.Eval(doc, true)
	s.NaiveCompare = false
	if !hashed.Equal(naive) {
		t.Errorf("naive %v != hashed %v", naive, hashed)
	}
}

func TestWitnessUnsatisfiable(t *testing.T) {
	// A ref spanner whose automaton is empty: give it an unreachable final.
	n, err := regex.Parse("!x{a}&x")
	if err != nil {
		t.Fatal(err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	for q := range a.Final {
		a.Final[q] = false // no accepting state
	}
	s, err := New(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Satisfiable() {
		t.Error("unsatisfiable spanner reported satisfiable")
	}
	if _, _, ok := s.Witness(); ok {
		t.Error("witness for unsatisfiable spanner")
	}
}
