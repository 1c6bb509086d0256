package slpmatch

import (
	"math/rand"
	"strings"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

func plainNFA(t *testing.T, src string) *automata.NFA {
	t.Helper()
	n, err := regex.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCompressedMembership(t *testing.T) {
	m, err := NewMatcher(plainNFA(t, "(ab)*c?"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		doc  string
		want bool
	}{
		{"", true},
		{"ab", true},
		{"ababab", true},
		{"abababc", true},
		{"c", true},
		{"a", false},
		{"ba", false},
		{"abc" + strings.Repeat("ab", 100), false},
	}
	for _, c := range cases {
		root := slp.Balance(slp.Compress([]byte(c.doc)))
		if got := m.Accepts(root); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.doc, got, c.want)
		}
	}
}

// TestCompressedMembershipHugeDoc pins E3's claim, O(|S|) Boolean matrix
// products for membership of (ab)^{n/2} in (ab)*, by counting: one
// product per distinct inner node of the DAG, whatever n, and none for a
// second question about the same document.
func TestCompressedMembershipHugeDoc(t *testing.T) {
	nfa := plainNFA(t, "(ab)*")
	for _, exp := range []int{12, 16, 20} {
		m, err := NewMatcher(nfa)
		if err != nil {
			t.Fatal(err)
		}
		root := slp.Repeat(slp.FromBytes([]byte("ab")), 1<<(exp-1))
		if !m.Accepts(root) {
			t.Fatalf("n=2^%d: periodic doc rejected", exp)
		}
		if got, want := m.CachedNodes(), innerNodes(root); got != want {
			t.Fatalf("n=2^%d: %d node matrices stored, want one per distinct inner node (%d)", exp, got, want)
		}
		_, missesBefore := CacheStats()
		m.Accepts(root)
		if _, misses := CacheStats(); misses != missesBefore {
			t.Fatalf("n=2^%d: second Accepts missed the table %d times, want 0", exp, misses-missesBefore)
		}
		if m.Accepts(slp.Concat(root, slp.Leaf('a'))) {
			t.Fatalf("n=2^%d: odd-length doc accepted", exp)
		}
	}
}

func TestCompressedMembershipRandomCrossCheck(t *testing.T) {
	m, err := NewMatcher(plainNFA(t, "a(a|b)*b|c+"))
	if err != nil {
		t.Fatal(err)
	}
	d := automata.Determinize(plainNFA(t, "a(a|b)*b|c+"))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(30)
		doc := make([]byte, n)
		for i := range doc {
			doc[i] = "abc"[rng.Intn(3)]
		}
		root := slp.Balance(slp.Compress(doc))
		want := d.AcceptsExtended(doc, nil)
		if got := m.Accepts(root); got != want {
			t.Fatalf("Accepts(%q) = %v, want %v", doc, got, want)
		}
	}
}

func TestMatcherRejectsSpanners(t *testing.T) {
	if _, err := NewMatcher(plainNFA(t, "!x{a}")); err == nil {
		t.Error("marker automaton accepted by NewMatcher")
	}
}

func spannerDEVA(t *testing.T, src string) *automata.DEVA {
	t.Helper()
	return automata.Determinize(plainNFA(t, src))
}

func TestIndexEnumAgainstUncompressed(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		".*!x{ab}.*",
		"!x{a+}(!y{b+})?.*",
		"!x{.*}!y{.*}",
		"(!x{aa}|!x{bb}).*",
	}
	docs := []string{"", "a", "ab", "abab", "aabba", "bbbbbb", "abaabbab", "ababbab"}
	for _, src := range exprs {
		d := spannerDEVA(t, src)
		ix := NewIndex(d)
		for _, doc := range docs {
			root := slp.Balance(slp.Compress([]byte(doc)))
			got := ix.All(root)
			want := enum.NewEnumerator(d, []byte(doc)).All()
			if !got.Equal(want) {
				t.Errorf("%q on %q:\n compressed %v\n plain %v", src, doc, got, want)
			}
		}
	}
}

func TestIndexEnumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := spannerDEVA(t, ".*a!x{(b|c)*}a.*")
	ix := NewIndex(d)
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(24) + 1
		doc := make([]byte, n)
		for i := range doc {
			doc[i] = "abc"[rng.Intn(3)]
		}
		root := slp.Balance(slp.Compress(doc))
		got := ix.All(root)
		want := enum.NewEnumerator(d, doc).All()
		if !got.Equal(want) {
			t.Fatalf("doc %q:\n compressed %v\n plain %v", doc, got, want)
		}
	}
}

func TestIndexHugeCompressedDoc(t *testing.T) {
	// Count "ab" factor occurrences in (ab)^k via the spanner .*!x{ab}.*
	// on a logarithmic-size SLP.
	d := spannerDEVA(t, ".*!x{ab}.*")
	ix := NewIndex(d)
	k := int64(1 << 14)
	root := slp.Repeat(slp.FromBytes([]byte("ab")), k)
	ix.Warm(root)
	// Count by early termination to keep the test fast: take the first
	// 1000 tuples only.
	taken := 0
	ix.Each(root, func(spans.Tuple) bool {
		taken++
		return taken < 1000
	})
	if taken != 1000 {
		t.Errorf("early-stopped enumeration returned %d tuples", taken)
	}
	// Full count on a smaller power.
	small := slp.Repeat(slp.FromBytes([]byte("ab")), 64)
	if got := ix.Count(small); got != 64 {
		t.Errorf("Count = %d, want 64", got)
	}
}

func TestIndexNonEmpty(t *testing.T) {
	d := spannerDEVA(t, ".*!x{abc}.*")
	ix := NewIndex(d)
	yes := slp.Balance(slp.Compress([]byte("bbabcbb")))
	no := slp.Balance(slp.Compress([]byte("ababab")))
	if !ix.NonEmpty(yes) {
		t.Error("NonEmpty(yes) = false")
	}
	if ix.NonEmpty(no) {
		t.Error("NonEmpty(no) = true")
	}
	// Empty document with ε-matching spanner.
	dEps := spannerDEVA(t, "!x{a*}")
	ixe := NewIndex(dEps)
	if !ixe.NonEmpty(nil) {
		t.Error("NonEmpty(ε) = false for ε-matching spanner")
	}
}

func TestIndexSharedCacheAcrossCDEUpdates(t *testing.T) {
	// The index data extends incrementally when CDE edits create new
	// nodes (Section 4.3): old nodes stay cached.
	d := spannerDEVA(t, ".*!x{ab}.*")
	ix := NewIndex(d)
	db := slp.NewDB()
	base := slp.FromBytes([]byte(strings.Repeat("ab", 128)))
	db.Add("D", base)
	ix.Warm(base)
	before := ix.CachedNodes()

	e, err := slp.ParseCDE("copy(D,1,6,100)")
	if err != nil {
		t.Fatal(err)
	}
	edited, err := db.EvalAndAdd("D2", e)
	if err != nil {
		t.Fatal(err)
	}
	ix.Warm(edited)
	added := ix.CachedNodes() - before
	if added <= 0 || added > 80 {
		t.Errorf("CDE update added %d cached nodes, want O(log n)", added)
	}
	// Result must match the uncompressed enumerator on the edited doc.
	got := ix.All(edited)
	want := enum.NewEnumerator(d, edited.Bytes()).All()
	if !got.Equal(want) {
		t.Error("post-edit enumeration mismatch")
	}
}

func TestIndexMatchesNaiveEval(t *testing.T) {
	nfa := plainNFA(t, "!x{(a|b)+}c!y{a*}")
	d := automata.Determinize(nfa)
	ix := NewIndex(d)
	for _, doc := range []string{"ac", "abca", "bbca", "abcaa", "cab"} {
		root := slp.FromBytes([]byte(doc))
		got := ix.All(root)
		want := vset.Eval(nfa, []byte(doc), vset.Schemaless)
		if !got.Equal(want) {
			t.Errorf("doc %q:\n compressed %v\n naive %v", doc, got, want)
		}
	}
}
