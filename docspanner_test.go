package docspanner

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompileAndEval(t *testing.T) {
	s := MustCompile("!x{(a|b)*}!y{b}!z{(a|b)*}", Options{})
	rel := s.Eval([]byte("ababbab"))
	if rel.Len() != 4 {
		t.Errorf("Eval returned %d tuples, want 4 (Example 1.1)", rel.Len())
	}
	if !s.IsRegular() {
		t.Error("regular spanner misclassified")
	}
	if !s.Vars().Equal(NewVarSet("x", "y", "z")) {
		t.Errorf("Vars = %v", s.Vars())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("!x{a", Options{}); err == nil {
		t.Error("syntax error accepted")
	}
	// Non-functional binding under functional semantics.
	if _, err := Compile("!x{a}|b", Options{}); err == nil {
		t.Error("non-functional spanner accepted under functional semantics")
	}
	if _, err := Compile("!x{a}|b", Options{Schemaless: true}); err != nil {
		t.Errorf("schemaless compile failed: %v", err)
	}
	// Forward reference.
	if _, err := Compile("&x!x{a}", Options{}); err == nil {
		t.Error("forward reference accepted")
	}
}

// TestFunctionalityIsCheckedWithReferences: a pattern with references
// that leaves a variable unassigned on some accepting path is refused
// under functional semantics, on Compile and on LoadSpanner, exactly as a
// regular pattern is; schemaless, it compiles, and its decision problems
// agree with its evaluation.
func TestFunctionalityIsCheckedWithReferences(t *testing.T) {
	for _, c := range []struct {
		pattern string
		doc     string
		want    Tuple // the one tuple of the schemaless spanner on doc
	}{
		{`!x{a}&x|!y{b}`, "b", Tuple{"y": NewSpan(1, 2)}},
		{`!x{a}&x|b`, "b", Tuple{}},
	} {
		if _, err := Compile(c.pattern, Options{}); err == nil {
			t.Errorf("%s: compiled under functional semantics, yet a path leaves a variable unassigned", c.pattern)
		}
		s, err := Compile(c.pattern, Options{Schemaless: true})
		if err != nil {
			t.Fatalf("%s: schemaless Compile: %v", c.pattern, err)
		}
		doc := []byte(c.doc)
		if rel := s.Eval(doc); rel.Len() != 1 || !rel.Contains(c.want) {
			t.Errorf("%s: Eval(%q) = %v, want {%v}", c.pattern, c.doc, rel, c.want)
		}
		if !s.NonEmpty(doc) || !s.Satisfiable() {
			t.Errorf("%s: NonEmpty(%q) = %v, Satisfiable = %v", c.pattern, c.doc, s.NonEmpty(doc), s.Satisfiable())
		}
		if wdoc, wt, ok := s.Witness(); !ok || !s.Eval(wdoc).Contains(wt) {
			t.Errorf("%s: Witness (%q, %v, %v) is not in the spanner's result", c.pattern, wdoc, wt, ok)
		}
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		functional := strings.Replace(string(data), `"schemaless":true,`, "", 1)
		if functional == string(data) {
			t.Fatalf("%s: no schemaless flag in %s", c.pattern, data)
		}
		if _, err := LoadSpanner([]byte(functional)); err == nil {
			t.Errorf("%s: LoadSpanner accepted it as a functional spanner", c.pattern)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := MustCompile(".*!x{a}.*", Options{Alphabet: []byte("a")})
	n := 0
	s.Enumerate([]byte(strings.Repeat("a", 100)), func(Tuple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("stopped after %d", n)
	}
	if got := s.Count([]byte("aaa")); got != 3 {
		t.Errorf("Count = %d", got)
	}
}

func TestReflSpannerAPI(t *testing.T) {
	s := MustCompile("!x{(a|b)+}c!y{&x}", Options{})
	if s.IsRegular() {
		t.Error("refl spanner misclassified")
	}
	rel := s.Eval([]byte("abcab"))
	if rel.Len() != 1 {
		t.Errorf("Eval = %v", rel)
	}
	ok, err := s.ModelCheck([]byte("abcab"), Tuple{"x": NewSpan(1, 3), "y": NewSpan(4, 6)})
	if err != nil || !ok {
		t.Errorf("ModelCheck = %v, %v", ok, err)
	}
	if !s.NonEmpty([]byte("abcab")) || s.NonEmpty([]byte("abcba")) {
		t.Error("NonEmpty wrong")
	}
	if !s.Satisfiable() {
		t.Error("Satisfiable = false")
	}
}

func TestDecisionProblemsAPI(t *testing.T) {
	a := MustCompile("!x{a}", Options{Alphabet: []byte("ab")})
	b := MustCompile("!x{a|b}", Options{Alphabet: []byte("ab")})
	if ok, err := Contains(a, b); err != nil || !ok {
		t.Errorf("Contains = %v, %v", ok, err)
	}
	if ok, _ := Equivalent(a, b); ok {
		t.Error("distinct spanners equivalent")
	}
	c := MustCompile("!x{b|a}", Options{Alphabet: []byte("ab")})
	if ok, err := Equivalent(b, c); err != nil || !ok {
		t.Errorf("Equivalent = %v, %v", ok, err)
	}
	h, err := a.Hierarchical()
	if err != nil || !h {
		t.Errorf("Hierarchical = %v, %v", h, err)
	}

	doc, tup, ok := a.Witness()
	if !ok || string(doc) != "a" || tup.Get("x") != NewSpan(1, 2) {
		t.Errorf("Witness = %q %v %v", doc, tup, ok)
	}

	// Refl spanners: equivalence refuses, bounded check works.
	r := MustCompile("!x{a+}&x", Options{})
	if _, err := Equivalent(a, r); err == nil {
		t.Error("Equivalent accepted refl spanner")
	}
	eq, ce, err := EquivalentUpTo(a, r, []byte("a"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("distinct spanners reported equal up to length 4")
	}
	if len(ce) == 0 && ce != nil {
		t.Logf("counterexample: %q", ce)
	}
}

func TestQueryAlgebra(t *testing.T) {
	doc := []byte("ab,ab")
	pair := MustCompile("!x{(a|b)+},!y{(a|b)+}", Options{Alphabet: []byte("ab,")})
	q := MustQ(pair).SelectEqual("x", "y").Project("x")
	if !q.IsCore() {
		t.Error("IsCore = false")
	}
	rel := q.Eval(doc)
	if rel.Len() != 1 || !rel.Contains(Tuple{"x": NewSpan(1, 3)}) {
		t.Errorf("query Eval = %v", rel)
	}

	nf, err := q.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nf.Selections() != 1 {
		t.Errorf("Selections = %d", nf.Selections())
	}
	if !nf.Eval(doc).Equal(rel) {
		t.Error("normal form disagrees with direct evaluation")
	}
	if !nf.Visible().Equal(NewVarSet("x")) {
		t.Errorf("Visible = %v", nf.Visible())
	}
	if q.String() == "" {
		t.Error("empty String")
	}

	u := MustQ(MustCompile("!x{a}", Options{Alphabet: []byte("ab")})).
		Union(MustQ(MustCompile("!x{b}", Options{Alphabet: []byte("ab")})))
	if got := u.Eval([]byte("a")).Len(); got != 1 {
		t.Errorf("union Eval = %d", got)
	}

	j := MustQ(MustCompile(".*!x{a.}.*", Options{Alphabet: []byte("ab")})).
		Join(MustQ(MustCompile(".*!x{.b}.*", Options{Alphabet: []byte("ab")})))
	if got := j.Eval([]byte("aab")); got.Len() != 1 || !got.Contains(Tuple{"x": NewSpan(2, 4)}) {
		t.Errorf("join Eval = %v", got)
	}
}

func TestQueryFuse(t *testing.T) {
	s := MustCompile("!u{a+}b!v{a+}", Options{})
	q := MustQ(s).Fuse("w", "u", "v").Project("w")
	rel := q.Eval([]byte("aba"))
	if rel.Len() != 1 || !rel.Contains(Tuple{"w": NewSpan(1, 4)}) {
		t.Errorf("Fuse = %v", rel)
	}
}

func TestCompressedDocumentAPI(t *testing.T) {
	plain := []byte(strings.Repeat("the cat sat. ", 500))
	d := CompressDocument(plain)
	if d.Len() != int64(len(plain)) {
		t.Errorf("Len = %d", d.Len())
	}
	if d.GrammarSize() >= len(plain) {
		t.Errorf("no compression: %d nodes", d.GrammarSize())
	}
	if string(d.Bytes()) != string(plain) {
		t.Error("round trip failed")
	}
	if d.Byte(4) != 'c' {
		t.Errorf("Byte(4) = %c", d.Byte(4))
	}

	s := MustCompile(".*!x{cat}.*", Options{Alphabet: []byte("the cast. ")})
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	ix.Warm(d)
	if got := ix.Count(d); got != 500 {
		t.Errorf("compressed Count = %d, want 500", got)
	}
	if !ix.NonEmpty(d) {
		t.Error("NonEmpty = false")
	}
	// Agreement with plain evaluation.
	if !ix.Eval(d).Equal(s.Eval(plain)) {
		t.Error("compressed and plain evaluation disagree")
	}
}

func TestRepeatDocument(t *testing.T) {
	base := DocumentFromBytes([]byte("ab"))
	big := RepeatDocument(base, 1<<20)
	if big.Len() != 2<<20 {
		t.Errorf("Len = %d", big.Len())
	}
	if big.GrammarSize() > 64 {
		t.Errorf("GrammarSize = %d, want logarithmic", big.GrammarSize())
	}
}

func TestDocDBEditing(t *testing.T) {
	db := NewDocDB()
	db.Add("D1", CompressDocument([]byte("hello world")))
	db.Add("D2", CompressDocument([]byte("spanner")))
	d3, err := db.Edit("D3", "insert(D1, extract(D2,1,4), 7)")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(d3.Bytes()); got != "hello spanworld" {
		t.Errorf("edit result = %q", got)
	}
	if _, ok := db.Get("D3"); !ok {
		t.Error("D3 not stored")
	}
	if len(db.Names()) != 3 {
		t.Errorf("Names = %v", db.Names())
	}
	if db.Size() == 0 {
		t.Error("Size = 0")
	}
	if _, err := db.Edit("X", "extract(D9,1,2)"); err == nil {
		t.Error("edit of unknown doc accepted")
	}
	if _, err := db.Edit("X", "nonsense("); err == nil {
		t.Error("parse error accepted")
	}
}

func TestIndexWarmDeltaAcrossEdits(t *testing.T) {
	db := NewDocDB()
	db.Add("log", CompressDocument([]byte("the cat sat on the mat")))

	s := MustCompile(".*!x{at}.*", Options{Alphabet: []byte("the cast. monm")})
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	old, _ := db.Get("log")
	ix.Warm(old)
	if ix.ExactCount(old).Int64() != int64(ix.Count(old)) {
		t.Fatal("ExactCount and Count disagree on the base document")
	}

	for i, expr := range []string{
		"insert(log, extract(log,5,8), 1)", // prepend "cat "
		"delete(log, 1, 4)",
		"concat(log, log)",
	} {
		cur, err := db.Edit("log", expr)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		st := ix.WarmDelta(old, cur)
		if st.Recomputed == 0 {
			t.Errorf("edit %d: WarmDelta recomputed nothing", i)
		}
		// The maintained index must agree with plain evaluation — and
		// the maintained exact counter with the maintained index.
		if !ix.Eval(cur).Equal(s.Eval(cur.Bytes())) {
			t.Errorf("edit %d: maintained index diverged from plain evaluation", i)
		}
		if got, want := ix.ExactCount(cur).Int64(), int64(ix.Count(cur)); got != want {
			t.Errorf("edit %d: ExactCount = %d, Count = %d", i, got, want)
		}
		old = cur
	}
}

func TestRefusedOperations(t *testing.T) {
	r := MustCompile("!x{a+}&x", Options{})
	if _, err := r.Index(); err == nil {
		t.Error("Index on refl spanner accepted")
	}
	if _, err := Q(r); err == nil {
		t.Error("Q on refl spanner accepted")
	}
	if _, err := r.Hierarchical(); err == nil {
		t.Error("Hierarchical on refl spanner accepted")
	}
}

func TestEquivalentUpToPositive(t *testing.T) {
	a := MustCompile("!x{ab}", Options{Alphabet: []byte("ab")})
	b := MustCompile("!x{ab}", Options{Alphabet: []byte("ab")})
	eq, ce, err := EquivalentUpTo(a, b, []byte("ab"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !eq || ce != nil {
		t.Errorf("EquivalentUpTo = %v, %q", eq, ce)
	}
}

func TestEquivalentUpToRejectsEmptyAlphabet(t *testing.T) {
	a := MustCompile("!x{ab}", Options{Alphabet: []byte("ab")})
	b := MustCompile("!x{ab}", Options{Alphabet: []byte("ab")})
	if _, _, err := EquivalentUpTo(a, b, nil, 4); err == nil {
		t.Error("empty alphabet with maxLen > 0 accepted")
	}
	if _, _, err := EquivalentUpTo(a, b, []byte("ab"), -1); err == nil {
		t.Error("negative maxLen accepted")
	}
	// maxLen 0 with an empty alphabet is a legitimate (if trivial)
	// comparison of the empty document only.
	eq, ce, err := EquivalentUpTo(a, b, nil, 0)
	if err != nil || !eq || ce != nil {
		t.Errorf("EquivalentUpTo(nil, 0) = %v, %q, %v", eq, ce, err)
	}
}

func TestExactCountAPI(t *testing.T) {
	s := MustCompile(".*!x{a}.*", Options{Alphabet: []byte("ab")})
	doc := []byte("aabaa")
	c, err := s.ExactCount(doc)
	if err != nil || c.Int64() != 4 {
		t.Errorf("ExactCount = %v, %v", c, err)
	}
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	big := RepeatDocument(DocumentFromBytes(doc), 1<<30)
	got := ix.ExactCount(big)
	want := int64(4) * (1 << 30)
	if got.Int64() != want {
		t.Errorf("compressed ExactCount = %v, want %d", got, want)
	}
	// Refl spanners refuse.
	r := MustCompile("!x{a+}&x", Options{})
	if _, err := r.ExactCount(nil); err == nil {
		t.Error("refl ExactCount accepted")
	}
}

func TestDifferenceAPI(t *testing.T) {
	a := MustCompile(".*!x{a|b}.*", Options{Alphabet: []byte("ab")})
	b := MustCompile(".*!x{b}.*", Options{Alphabet: []byte("ab")})
	d, err := Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("aba")
	rel := d.Eval(doc)
	want := a.Eval(doc).Minus(b.Eval(doc))
	if !rel.Equal(want) {
		t.Errorf("Difference = %v, want %v", rel, want)
	}
	r := MustCompile("!x{a+}&x", Options{})
	if _, err := Difference(a, r); err == nil {
		t.Error("refl operand accepted")
	}
}

func TestDocDBSerializationAPI(t *testing.T) {
	db := NewDocDB()
	db.Add("a", CompressDocument([]byte(strings.Repeat("hello ", 100))))
	db.Add("b", CompressDocument([]byte("world")))
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDocDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := back.Get("a")
	if !ok || string(a.Bytes()) != strings.Repeat("hello ", 100) {
		t.Error("document a lost")
	}
	if len(back.Names()) != 2 {
		t.Errorf("Names = %v", back.Names())
	}
}

func TestIndexEnumerateAPI(t *testing.T) {
	s := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")})
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	d := CompressDocument([]byte("abab"))
	n := 0
	ix.Enumerate(d, func(Tuple) bool { n++; return true })
	if n != 2 {
		t.Errorf("Enumerate saw %d tuples", n)
	}
}

func TestQueryVarsAndNormalFormStates(t *testing.T) {
	q := MustQ(MustCompile("!x{a}!y{b}", Options{}))
	if !q.Vars().Equal(NewVarSet("x", "y")) {
		t.Errorf("Vars = %v", q.Vars())
	}
	nf, err := q.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nf.AutomatonStates() <= 0 {
		t.Error("AutomatonStates = 0")
	}
}

func TestSchemalessSpannerAPI(t *testing.T) {
	s := MustCompile("!x{a}|b", Options{Schemaless: true, Alphabet: []byte("ab")})
	rel := s.Eval([]byte("b"))
	if rel.Len() != 1 || !rel.Contains(Tuple{}) {
		t.Errorf("schemaless Eval = %v", rel)
	}
	ok, err := s.ModelCheck([]byte("b"), Tuple{})
	if err != nil || !ok {
		t.Errorf("schemaless ModelCheck = %v %v", ok, err)
	}
	if c := s.Count([]byte("a")); c != 1 {
		t.Errorf("Count = %d", c)
	}
}

// TestCheckSplitCorrect decides split-correctness on the positive and
// negative instances of the internal/split tests: documents over {a,b,;}
// are split at semicolons; aa cannot cross a ';', a;a must.
func TestCheckSplitCorrect(t *testing.T) {
	opts := Options{Alphabet: []byte("ab;")}
	p := MustCompile(".*!x{aa}.*", opts)
	splitter := MustCompile("(.*;)?!s{[ab]*}(;.*)?", opts)
	correct, ce, err := CheckSplitCorrect(p, splitter, "s", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !correct || ce != nil {
		t.Errorf("CheckSplitCorrect = %v, %q", correct, ce)
	}
	bad := MustCompile(".*!x{a;a}.*", opts)
	correct, ce, err = CheckSplitCorrect(bad, splitter, "s", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if correct {
		t.Error("split-incorrect spanner reported correct")
	}
	if ce == nil {
		t.Error("no counterexample found for split-incorrect spanner")
	}

	// The decision needs regular spanners and a splitter binding splitVar.
	refl := MustCompile("!x{(a|b)+}&x", opts)
	if _, _, err := CheckSplitCorrect(refl, splitter, "s", nil, 2); err == nil {
		t.Error("CheckSplitCorrect accepted a refl-spanner")
	}
	if _, _, err := CheckSplitCorrect(p, refl, "x", nil, 2); err == nil {
		t.Error("CheckSplitCorrect accepted a refl splitter")
	}
	if _, _, err := CheckSplitCorrect(p, splitter, "nosuchvar", nil, 2); err == nil {
		t.Error("CheckSplitCorrect accepted a split variable the splitter does not bind")
	}
}

// TestReflEnumerateStreams checks the work-saving property of the
// streaming refl enumeration: an early-stopping callback sees exactly k
// tuples, and NonEmpty-style probing does not materialize the relation.
func TestReflEnumerateStreams(t *testing.T) {
	s := MustCompile("!x{(a|b)+}&x", Options{Alphabet: []byte("ab")})
	doc := []byte("abab")
	full := s.Count(doc)
	if full == 0 {
		t.Fatal("fixture has no results")
	}
	n := 0
	s.Enumerate(doc, func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop enumeration delivered %d tuples, want 1", n)
	}
	// Streaming must agree with materialization.
	streamed := NewRelation()
	s.Enumerate(doc, func(tu Tuple) bool { streamed.Add(tu); return true })
	if !streamed.Equal(s.Eval(doc)) {
		t.Errorf("streamed = %v, want %v", streamed, s.Eval(doc))
	}
}
