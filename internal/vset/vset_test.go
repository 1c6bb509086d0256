package vset

import (
	"strings"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/refwords"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
)

func compile(t *testing.T, src string) *automata.NFA {
	t.Helper()
	n, err := regex.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("abc")})
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return a
}

func TestEvalExample11(t *testing.T) {
	// Example 1.1: S(ababbab) has exactly four tuples.
	a := compile(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	got := Eval(a, []byte("ababbab"), Functional)
	want := spans.NewRelation(
		spans.NewTuple("x", spans.S(1, 2), "y", spans.S(2, 3), "z", spans.S(3, 8)),
		spans.NewTuple("x", spans.S(1, 4), "y", spans.S(4, 5), "z", spans.S(5, 8)),
		spans.NewTuple("x", spans.S(1, 5), "y", spans.S(5, 6), "z", spans.S(6, 8)),
		spans.NewTuple("x", spans.S(1, 7), "y", spans.S(7, 8), "z", spans.S(8, 8)),
	)
	if !got.Equal(want) {
		t.Errorf("Eval = %v\nwant %v", got, want)
	}
}

func TestEvalEmptyDocument(t *testing.T) {
	a := compile(t, "!x{a*}")
	got := Eval(a, nil, Functional)
	if got.Len() != 1 || !got.Contains(spans.NewTuple("x", spans.S(1, 1))) {
		t.Errorf("Eval on empty doc = %v", got)
	}
}

func TestEvalNoMatch(t *testing.T) {
	a := compile(t, "!x{a}")
	got := Eval(a, []byte("b"), Functional)
	if got.Len() != 0 {
		t.Errorf("Eval = %v, want empty", got)
	}
}

func TestEvalSchemaless(t *testing.T) {
	// x is bound only on the 'a' branch.
	a := compile(t, "!x{a}|b")
	got := Eval(a, []byte("b"), Schemaless)
	if got.Len() != 1 || !got.Contains(spans.Tuple{}) {
		t.Errorf("schemaless Eval = %v", got)
	}
	// Under functional semantics the b-branch tuple is dropped.
	gf := Eval(a, []byte("b"), Functional)
	if gf.Len() != 0 {
		t.Errorf("functional Eval = %v", gf)
	}
}

// TestSearchEmitsEachTupleOnce: in the union of a spanner with itself
// every assignment is reached in two final states; Search emits it once.
func TestSearchEmitsEachTupleOnce(t *testing.T) {
	a := compile(t, "(a|b)*!x{a(a|b)*}(!y{b}|c)(a|b)*")
	twice := automata.Union(a, a)
	doc := []byte("abab")
	for _, sem := range []Semantics{Functional, Schemaless} {
		want := Eval(a, doc, sem)
		got := spans.NewRelation()
		emitted := 0
		if !Search(twice, doc, sem, nil, nil, func(tu spans.Tuple) bool { emitted++; got.Add(tu); return true }) {
			t.Fatalf("semantics %d: Search stopped without being asked to", sem)
		}
		if emitted != want.Len() || !got.Equal(want) {
			t.Errorf("semantics %d: %d tuples emitted, %v; want the %d of %v", sem, emitted, got, want.Len(), want)
		}
	}
}

// TestSearchStops: Search polls once every spans.PollEvery configurations
// and stops, reporting false, when poll or emit says so.
func TestSearchStops(t *testing.T) {
	a := compile(t, "(a|b)*!x{(a|b)*}(a|b)*")
	doc := []byte(strings.Repeat("ab", 20))
	all := 0
	if !Search(a, doc, Functional, nil, func() bool { return true }, func(spans.Tuple) bool { all++; return true }) {
		t.Fatal("an unstopped Search reported false")
	}
	polls, emitted := 0, 0
	if Search(a, doc, Functional, nil, func() bool { polls++; return polls < 3 }, func(spans.Tuple) bool { emitted++; return true }) {
		t.Fatal("Search ignored its poll")
	}
	if polls != 3 || emitted >= all {
		t.Errorf("stopped at poll %d after %d of %d tuples", polls, emitted, all)
	}
	emitted = 0
	if Search(a, doc, Functional, nil, nil, func(spans.Tuple) bool { emitted++; return emitted < 5 }) || emitted != 5 {
		t.Errorf("emit stopped the search after %d tuples", emitted)
	}
}

func TestEvalOverlappingSpanner(t *testing.T) {
	// Non-hierarchical regular spanner: x covers a prefix ending with b,
	// y covers a suffix starting at that b: spans overlap at one letter.
	vars := spans.NewVarSet("x", "y")
	n := automata.NewNFA(vars)
	s1 := n.AddState() // inside x, before y opens
	s2 := n.AddState() // y opened, reading the shared b
	s3 := n.AddState() // x closed, inside y
	s4 := n.AddState() // y closed
	n.AddMarker(n.Start, automata.Marker{Var: "x"}, s1)
	n.AddLetter(s1, 'a', s1)
	n.AddMarker(s1, automata.Marker{Var: "y"}, s2)
	s2x := n.AddState()
	n.AddLetter(s2, 'b', s2x)
	n.AddMarker(s2x, automata.Marker{Var: "x", Close: true}, s3)
	n.AddLetter(s3, 'a', s3)
	n.AddMarker(s3, automata.Marker{Var: "y", Close: true}, s4)
	n.SetFinal(s4)

	got := Eval(n, []byte("aba"), Functional)
	want := spans.NewRelation(
		spans.NewTuple("x", spans.S(1, 3), "y", spans.S(2, 4)),
	)
	if !got.Equal(want) {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	if Hierarchical(n) {
		t.Error("overlapping spanner reported hierarchical")
	}
}

func TestModelCheck(t *testing.T) {
	a := compile(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	doc := []byte("ababbab")
	in := spans.NewTuple("x", spans.S(1, 4), "y", spans.S(4, 5), "z", spans.S(5, 8))
	ok, err := ModelCheck(a, doc, in, Functional)
	if err != nil || !ok {
		t.Errorf("ModelCheck(in) = %v, %v", ok, err)
	}
	outT := spans.NewTuple("x", spans.S(1, 2), "y", spans.S(2, 4), "z", spans.S(4, 8))
	ok, err = ModelCheck(a, doc, outT, Functional)
	if err != nil || ok {
		t.Errorf("ModelCheck(out) = %v, %v", ok, err)
	}

	// Partial tuple under functional semantics: no.
	part := spans.NewTuple("x", spans.S(1, 4))
	if ok, _ := ModelCheck(a, doc, part, Functional); ok {
		t.Error("partial tuple accepted under functional semantics")
	}

	// Errors: unknown variable, out-of-range span.
	if _, err := ModelCheck(a, doc, spans.NewTuple("w", spans.S(1, 2)), Functional); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := ModelCheck(a, doc, spans.NewTuple("x", spans.S(1, 99)), Functional); err == nil {
		t.Error("out-of-range span accepted")
	}
}

func TestModelCheckConsecutiveMarkers(t *testing.T) {
	// The order of consecutive markers must not matter (Section 2.2):
	// tuple with ◁x and y▷ at the same boundary.
	a := compile(t, "!x{a}!y{b}")
	doc := []byte("ab")
	tup := spans.NewTuple("x", spans.S(1, 2), "y", spans.S(2, 3))
	ok, err := ModelCheck(a, doc, tup, Functional)
	if err != nil || !ok {
		t.Errorf("ModelCheck = %v, %v", ok, err)
	}
}

func TestAcceptsMarkedAgainstEval(t *testing.T) {
	a := compile(t, "!x{(a|b)+}c!y{(a|c)*}")
	doc := []byte("abcac")
	rel := Eval(a, doc, Functional)
	if rel.Len() == 0 {
		t.Fatal("expected matches")
	}
	for _, tup := range rel.Tuples() {
		w := refwords.FromTuple(doc, tup)
		if !AcceptsMarked(a, w.ToMarkerSets()) {
			t.Errorf("AcceptsMarked rejects %v from Eval", tup)
		}
	}
	// A tuple not in the relation must be rejected.
	bad := spans.NewTuple("x", spans.S(1, 2), "y", spans.S(2, 3))
	if ok, _ := ModelCheck(a, doc, bad, Functional); ok {
		t.Error("bad tuple accepted")
	}
}

func TestNonEmpty(t *testing.T) {
	a := compile(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	if !NonEmpty(a, []byte("ab")) {
		t.Error("NonEmpty(ab) = false")
	}
	if NonEmpty(a, []byte("aaa")) {
		t.Error("NonEmpty(aaa) = true (no b)")
	}
	if NonEmpty(a, []byte("c")) {
		t.Error("NonEmpty(c) = true")
	}
}

func TestSatisfiableAndWitness(t *testing.T) {
	a := compile(t, "!x{ab}c")
	if !Satisfiable(a) {
		t.Error("Satisfiable = false")
	}
	doc, tup, ok := Witness(a)
	if !ok || string(doc) != "abc" {
		t.Errorf("Witness = %q, %v, %v", doc, tup, ok)
	}
	if tup.Get("x") != spans.S(1, 3) {
		t.Errorf("witness tuple = %v", tup)
	}

	// a ∩ b = ∅ via an automaton with unreachable final state.
	empty := automata.NewNFA(nil)
	if Satisfiable(empty) {
		t.Error("empty automaton satisfiable")
	}
	if _, _, ok := Witness(empty); ok {
		t.Error("witness for empty automaton")
	}
}

func TestHierarchicalRegexFormulas(t *testing.T) {
	// Regex-formulas are hierarchical by construction (Section 2.2).
	for _, src := range []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a!y{b}c}",
		"!x{a}|!x{b}",
	} {
		if !Hierarchical(compile(t, src)) {
			t.Errorf("regex-formula %q reported non-hierarchical", src)
		}
	}
}

func TestHierarchicalNestedSameBoundary(t *testing.T) {
	// x and y open at the same boundary and close at the same boundary:
	// equal spans are nested (x ⊆ y), hence hierarchical.
	a := compile(t, "!x{!y{ab}}")
	if !Hierarchical(a) {
		t.Error("equal spans reported overlapping")
	}
}

func TestContainsAndEquivalent(t *testing.T) {
	a := compile(t, "!x{a}")
	b := compile(t, "!x{a|b}")
	if !Contains(a, b) {
		t.Error("a ⊆ b fails")
	}
	if Contains(b, a) {
		t.Error("b ⊆ a should fail")
	}
	if Equivalent(a, b) {
		t.Error("a ≡ b should fail")
	}

	// Same spanner, different expressions: (a|b) vs (b|a).
	c := compile(t, "!x{b|a}")
	if !Equivalent(b, c) {
		t.Error("b ≡ c fails")
	}

	// Different variable sets are never equivalent when both bind.
	d := compile(t, "!y{a}")
	if Equivalent(a, d) {
		t.Error("x-spanner equivalent to y-spanner")
	}
}

func TestEquivalentMarkerOrderInsensitive(t *testing.T) {
	// Adjacent-span spanners written with different consecutive-marker
	// orders: !x{a}!y{b} built from regex, and a hand-built automaton that
	// emits y▷ before ◁x at the shared boundary.
	a := compile(t, "!x{a}!y{b}")

	vars := spans.NewVarSet("x", "y")
	h := automata.NewNFA(vars)
	s1 := h.AddState()
	s2 := h.AddState()
	s3 := h.AddState() // y▷ fired before ◁x
	s4 := h.AddState()
	s5 := h.AddState()
	s6 := h.AddState()
	h.AddMarker(h.Start, automata.Marker{Var: "x"}, s1)
	h.AddLetter(s1, 'a', s2)
	h.AddMarker(s2, automata.Marker{Var: "y"}, s3) // y▷ first…
	h.AddMarker(s3, automata.Marker{Var: "x", Close: true}, s4)
	h.AddLetter(s4, 'b', s5)
	h.AddMarker(s5, automata.Marker{Var: "y", Close: true}, s6)
	h.SetFinal(s6)

	if !Equivalent(a, h) {
		t.Error("marker-order variants reported inequivalent")
	}
}

func TestEvalAgainstModelCheckQuick(t *testing.T) {
	// Cross-validate: every tuple Eval returns passes ModelCheck, and
	// ModelCheck finds no tuple outside Eval's relation on a small doc.
	a := compile(t, "!x{(a|b)+}!y{(b|c)*}")
	doc := []byte("abbc")
	rel := Eval(a, doc, Functional)
	n := len(doc)
	count := 0
	for xb := 1; xb <= n+1; xb++ {
		for xe := xb; xe <= n+1; xe++ {
			for yb := 1; yb <= n+1; yb++ {
				for ye := yb; ye <= n+1; ye++ {
					tup := spans.NewTuple("x", spans.S(xb, xe), "y", spans.S(yb, ye))
					ok, err := ModelCheck(a, doc, tup, Functional)
					if err != nil {
						t.Fatal(err)
					}
					if ok != rel.Contains(tup) {
						t.Fatalf("ModelCheck(%v) = %v but Eval relation says %v", tup, ok, rel.Contains(tup))
					}
					if ok {
						count++
					}
				}
			}
		}
	}
	if count != rel.Len() {
		t.Errorf("count mismatch: %d vs %d", count, rel.Len())
	}
}

func TestDifference(t *testing.T) {
	a := compile(t, ".*!x{(a|b)}.*")
	b := compile(t, ".*!x{b}.*")
	diff := Difference(a, b) // x over an 'a' only
	for _, doc := range []string{"", "a", "ab", "abba", "bbb", "aabba"} {
		want := Eval(a, []byte(doc), Schemaless).Minus(Eval(b, []byte(doc), Schemaless))
		got := Eval(diff, []byte(doc), Schemaless)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n got  %v\n want %v", doc, got, want)
		}
	}
	// a ∖ a is the empty spanner.
	empty := Difference(a, a)
	if Satisfiable(empty.Trim()) {
		t.Error("a ∖ a satisfiable")
	}
}

func TestDifferenceRandom(t *testing.T) {
	exprs := [][2]string{
		{"!x{(a|b)+}", "!x{a+}"},
		{".*!x{ab}.*", ".*!x{ab}b.*"},
		{"!x{a*}!y{b*}", "!x{a}!y{b*}"},
	}
	docs := []string{"", "a", "ab", "ba", "aabb", "abab"}
	for _, pair := range exprs {
		a, b := compile(t, pair[0]), compile(t, pair[1])
		diff := Difference(a, b)
		for _, doc := range docs {
			want := Eval(a, []byte(doc), Schemaless).Minus(Eval(b, []byte(doc), Schemaless))
			got := Eval(diff, []byte(doc), Schemaless)
			if !got.Equal(want) {
				t.Errorf("%v on %q:\n got  %v\n want %v", pair, doc, got, want)
			}
		}
	}
}
