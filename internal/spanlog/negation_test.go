package spanlog

import (
	"reflect"
	"testing"

	"docspanner/internal/spans"
)

const negProgram = `
tok(x)      :- "(.*,)?!x{[ab]+}(,.*)?"(x).
dup(x)      :- tok(x), tok(y), eq(x, y), neq_pos(x, y).
neq_pos(x, y) :- tok(x), tok(y), before(x, y).
before(x, y) :- "(.*,)?!x{[ab]+},(.*,)?!y{[ab]+}(,.*)?"(x, y).
uniq(x)     :- tok(x), !dup(x).
`

func TestStratifiedNegation(t *testing.T) {
	prog, err := ParseProgram(negProgram, []byte("ab,"))
	if err != nil {
		t.Fatal(err)
	}
	// dup holds for tokens with an equal-content counterpart at a
	// different position (before, either direction via the two roles);
	// uniq = the rest. Document: ab, b, ab → "b" is unique... note dup as
	// written only marks the EARLIER duplicate (x before y); adjust
	// expectation accordingly.
	doc := []byte("ab,b,ab")
	res, err := prog.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count("tok") != 3 {
		t.Fatalf("tok = %d", res.Count("tok"))
	}
	uniqContents := map[string]bool{}
	for _, f := range res.Facts("uniq") {
		uniqContents[string(f[0].Content(doc))] = true
	}
	// The first "ab" has a later equal token -> dup; the second "ab" has
	// none after it -> uniq; "b" is unique.
	if !uniqContents["b"] {
		t.Errorf("b not unique: %v", uniqContents)
	}
	if res.Count("dup") != 1 {
		t.Errorf("dup = %d, want 1 (the earlier ab)", res.Count("dup"))
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	src := `
p(x) :- "!x{a}"(x), !q(x).
q(x) :- "!x{a}"(x), !p(x).
`
	prog, err := ParseProgram(src, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Eval([]byte("a")); err == nil {
		t.Error("negation through recursion accepted")
	}
}

func TestNegationSafety(t *testing.T) {
	// Variable only in a negated literal: unsafe.
	src := `
p(x) :- "!x{a}"(x), !q(x, y).
q(x, y) :- "!x{a}!y{a}"(x, y).
`
	prog, err := ParseProgram(src, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Eval([]byte("aa")); err == nil {
		t.Error("unsafe negation accepted")
	}
}

func TestNegatedSpannerLiteralRejected(t *testing.T) {
	src := `p(x) :- "!x{a}"(x), !"!x{b}"(x).`
	if _, err := ParseProgram(src, []byte("ab")); err == nil {
		t.Error("negated spanner literal accepted")
	}
}

func TestStratifyLevels(t *testing.T) {
	prog, err := ParseProgram(negProgram, []byte("ab,"))
	if err != nil {
		t.Fatal(err)
	}
	strata, err := prog.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if !(strata["uniq"] > strata["dup"]) {
		t.Errorf("uniq stratum %d should exceed dup stratum %d", strata["uniq"], strata["dup"])
	}
}

// TestNegationOnPositiveProgramIsNoop checks that a program without
// negation is one stratum and that its fixpoint is exactly the positive
// closure.
func TestNegationOnPositiveProgramIsNoop(t *testing.T) {
	prog, err := ParseProgram(exampleProgram, []byte("abcdefghijklmnopqrstuvwxyz;->"))
	if err != nil {
		t.Fatal(err)
	}
	strata, err := prog.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	for pred, s := range strata {
		if s != 0 {
			t.Errorf("stratum of %s = %d, want 0", pred, s)
		}
	}
	// a->b;b->c: the two edges and their composition through eq(b, b).
	res, err := prog.Eval([]byte("a->b;b->c"))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]spans.Span{
		{spans.S(1, 2), spans.S(4, 5)},
		{spans.S(1, 2), spans.S(9, 10)},
		{spans.S(6, 7), spans.S(9, 10)},
	}
	if got := res.Facts("reach"); !reflect.DeepEqual(got, want) {
		t.Errorf("reach = %v, want %v", got, want)
	}
}
