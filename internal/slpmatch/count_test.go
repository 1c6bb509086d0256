package slpmatch

import (
	"math/big"
	"math/rand"
	"testing"

	"docspanner/internal/enum"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

func TestCounterMatchesEnumeration(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		".*!x{ab}.*",
		"!x{.*}!y{.*}",
		"(!x{aa}|!x{bb}).*",
	}
	rng := rand.New(rand.NewSource(123))
	for _, src := range exprs {
		d := spannerDEVA(t, src)
		c := NewCounter(d)
		ix := NewIndex(d)
		for trial := 0; trial < 15; trial++ {
			n := rng.Intn(14)
			doc := make([]byte, n)
			for i := range doc {
				doc[i] = "ab"[rng.Intn(2)]
			}
			root := slp.Balance(slp.Compress(doc))
			want := int64(ix.Count(root))
			got := c.Count(root)
			if got.Int64() != want {
				t.Fatalf("%q on %q: Count = %v, enum = %d", src, doc, got, want)
			}
			// And against the uncompressed fast counter.
			fast := enum.FastCount(d, doc)
			if fast.Int64() != want {
				t.Fatalf("%q on %q: FastCount = %v, enum = %d", src, doc, fast, want)
			}
		}
	}
}

// The count-only walk must agree with enumerate-and-filter for every
// variable subset, and honor the poll abort.
func TestIndexCountTotalMatchesEach(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a+}(!y{b+})?.*",
		"(!x{aa}|!x{bb}).*",
	}
	docs := []string{"", "ab", "abab", "aabbaabb", "abaabbabab"}
	for _, src := range exprs {
		d := spannerDEVA(t, src)
		ix := NewIndex(d)
		for _, doc := range docs {
			root := slp.Balance(slp.Compress([]byte(doc)))
			for _, vars := range []spans.VarSet{nil, spans.NewVarSet("x"), spans.NewVarSet("x", "y"), spans.NewVarSet("nope")} {
				want := 0
				ix.Each(root, func(t spans.Tuple) bool {
					if t.TotalOn(vars) {
						want++
					}
					return true
				})
				got, complete := ix.CountTotal(root, vars, nil)
				if got != want || !complete {
					t.Fatalf("%q on %q vars %v: CountTotal = %d (complete=%v), want %d", src, doc, vars, got, complete, want)
				}
			}
		}
	}
}

func TestIndexCountTotalPollAborts(t *testing.T) {
	d := spannerDEVA(t, ".*!x{a*}.*")
	ix := NewIndex(d)
	root := slp.Balance(slp.Compress([]byte("aaaaaaaa")))
	total := ix.Count(root)
	if total < 10 {
		t.Fatalf("test needs a larger result, got %d", total)
	}
	seen := 0
	n, complete := ix.CountTotal(root, nil, func() bool { seen++; return seen < 5 })
	if complete || n != 5 {
		t.Errorf("aborted CountTotal = (%d, %v), want (5, false)", n, complete)
	}
}

func TestCounterEmptyDoc(t *testing.T) {
	d := spannerDEVA(t, "!x{a*}")
	c := NewCounter(d)
	if got := c.Count(nil); got.Int64() != 1 {
		t.Errorf("Count(ε) = %v, want 1", got)
	}
}

func TestCounterAstronomical(t *testing.T) {
	// !x{.*}!y{.*}!z{.*} partitions the document at two boundaries
	// 1 ≤ i ≤ j ≤ n+1: exactly (n+1)(n+2)/2 tuples. On n = 2^60 the count
	// has 36 digits — far beyond anything enumerable — and the compressed
	// counter delivers it exactly from a ~100-node SLP. E13's claim, a
	// count linear in |S|, is pinned by counting: one count matrix per
	// distinct inner node of the DAG.
	d := spannerDEVA(t, "!x{(a|b)*}!y{(a|b)*}!z{(a|b)*}")
	d2 := spannerDEVA(t, "!x{(a|b)*}!y{(a|b)*}")
	for _, exp := range []int{20, 40, 60} {
		c := NewCounter(d)
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		got := c.Count(root)
		if cached, inner := c.CachedNodes(), innerNodes(root); cached != inner {
			t.Fatalf("n=2^%d: %d count matrices stored, want one per distinct inner node (%d)", exp, cached, inner)
		}

		want := new(big.Int).SetInt64(n + 1)
		want.Mul(want, big.NewInt(n+2))
		want.Div(want, big.NewInt(2))
		if got.Cmp(want) != 0 {
			t.Errorf("n=2^%d: Count = %v, want %v", exp, got, want)
		}

		// Two adjacent variables: n+1 boundary placements.
		if got := NewCounter(d2).Count(root); got.Cmp(big.NewInt(n+1)) != 0 {
			t.Errorf("n=2^%d: two-variable Count = %v, want %d", exp, got, n+1)
		}
	}
}

func TestCounterLinearSpanner(t *testing.T) {
	// .*!x{ab}.* on (ab)^k has exactly k result tuples.
	d := spannerDEVA(t, ".*!x{ab}.*")
	c := NewCounter(d)
	for _, k := range []int64{1, 64, 1 << 20, 1 << 33} {
		root := slp.Repeat(slp.FromBytes([]byte("ab")), k)
		if got := c.Count(root); got.Cmp(big.NewInt(k)) != 0 {
			t.Errorf("k=%d: Count = %v", k, got)
		}
	}
}

func TestCounterSharesCacheAcrossDocs(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	c := NewCounter(d)
	base := slp.FromBytes([]byte("abab"))
	d1 := slp.Repeat(base, 1024)
	d2 := slp.Concat(d1, base) // shares almost everything with d1
	c.Count(d1)
	before := c.CachedNodes()
	c.Count(d2)
	if added := c.CachedNodes() - before; added > 16 {
		t.Errorf("second document added %d matrices, want few (shared DAG)", added)
	}
}

func TestFastCountAgainstEnumeratorLarge(t *testing.T) {
	d := spannerDEVA(t, ".*!x{(a|b)+}.*")
	doc := make([]byte, 200)
	rng := rand.New(rand.NewSource(5))
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	e := enum.NewEnumerator(d, doc)
	if got := enum.FastCount(d, doc); got.Int64() != int64(e.Count()) {
		t.Errorf("FastCount = %v, enum = %d", got, e.Count())
	}
}
