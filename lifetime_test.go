package docspanner_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"docspanner"
	"docspanner/internal/qsyntax"
	"docspanner/internal/slpmatch"
)

// Everything a query derives — its plan, the determinized automata, their
// dense compilations, the compressed-evaluation tables — is a field of
// the query or of something the query holds. These tests pin the two
// consequences: a fresh query can never be handed what another query
// derived, and dropping a query frees all of it.

// word spells the low bits of i over {a,b}, lowest bit first.
func word(i, bits int) string {
	var sb strings.Builder
	for k := 0; k < bits; k++ {
		sb.WriteByte("ab"[(i>>k)&1])
	}
	return sb.String()
}

// countCompressed counts q's result tuples on the compressed document d;
// CountSource cannot fail under a background context.
func countCompressed(q *docspanner.Query, d *docspanner.Document) int {
	n, _ := q.CountSource(context.Background(), docspanner.Compressed(d, nil))
	return n
}

// TestFreshQueriesNeverAlias builds thousands of short-lived union and
// join queries through the ad-hoc door (qsyntax.Parse) with garbage
// collections in between, so the allocator hands later automata the
// addresses of dropped ones. Whatever evaluation keeps per automaton
// must not outlive the automaton: every planned result has to equal the
// planner-free reference.
func TestFreshQueriesNeverAlias(t *testing.T) {
	opts := docspanner.Options{Alphabet: []byte("ab")}
	doc := []byte("abbabaabbbaababbaaab")
	const queries = 2400
	for i := 0; i < queries; i++ {
		u, v := word(i, 2), word(i/4, 3)
		src := fmt.Sprintf("union(.*!x{%s}.*; .*!x{%s}.*)", u, v)
		if i%2 == 1 {
			src = fmt.Sprintf("join(.*!x{%s}.*; .*!y{%s}.*)", u, v)
		}
		q, err := qsyntax.Parse(src, opts)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got, want := q.Eval(doc), q.EvalNaive(doc); !got.Equal(want) {
			t.Fatalf("query %d %s:\n got %v\nwant %v\nplan:\n%s", i, src, got, want, q.Explain())
		}
		if i%7 == 0 {
			runtime.GC()
		}
	}
}

// liveHeap is the heap in use after everything collectable is collected
// (two cycles: sync.Pool contents survive the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDroppedQueriesAreCollected: compile, evaluate and drop many
// distinct queries, on plain text and on a compressed document; the live
// heap must not grow with their number.
func TestDroppedQueriesAreCollected(t *testing.T) {
	opts := docspanner.Options{Alphabet: []byte("ab")}
	text := []byte(strings.Repeat("abbabaabbbaababbaaab", 90)) // 1.8 KB
	compressed := docspanner.CompressDocument(text)
	const (
		queries     = 150
		perQueryMax = 2 << 10
	)
	for _, tc := range []struct {
		name string
		use  func(q *docspanner.Query) int
	}{
		{"plain", func(q *docspanner.Query) int { return q.Eval(text).Len() + q.Count(text) }},
		{"compressed", func(q *docspanner.Query) int { return countCompressed(q, compressed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(from, n int) {
				for i := from; i < from+n; i++ {
					q, err := qsyntax.Parse(fmt.Sprintf(".*!x{%s}.*", word(i, 8)), opts)
					if err != nil {
						t.Fatal(err)
					}
					tc.use(q)
				}
			}
			run(0, 8) // pools, lazily built package state
			before := liveHeap()
			run(8, queries)
			after := liveHeap()
			if grown := int64(after) - int64(before); grown > queries*perQueryMax {
				t.Errorf("live heap grew by %d bytes over %d dropped queries (%d per query, want < %d)",
					grown, queries, grown/queries, perQueryMax)
			}
		})
	}
}

// TestQueryHasOneIndex: Index() is the index the query's own compressed
// evaluation uses — the same object on every call — so warming through
// one and evaluating through the other touch one table set, before and
// after a Flush.
func TestQueryHasOneIndex(t *testing.T) {
	q, err := qsyntax.Parse("union(.*!x{ab}.*; .*!x{ba}.*)", docspanner.Options{Alphabet: []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := q.Index()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := q.Index(); again != ix {
		t.Fatal("Index() built a second index for the same query")
	}
	d := docspanner.CompressDocument([]byte(strings.Repeat("abba", 64)))
	misses := func() uint64 { _, m := slpmatch.CacheStats(); return m }

	for _, phase := range []string{"cold", "flushed"} {
		ix.Warm(d)
		m0 := misses()
		if got, want := countCompressed(q, d), ix.Count(d); got != want || got == 0 {
			t.Fatalf("%s: Query count = %d, Index.Count = %d", phase, got, want)
		}
		if m := misses() - m0; m != 0 {
			t.Errorf("%s: evaluation after Index.Warm missed %d nodes: the query and its index do not share tables", phase, m)
		}
		q.Flush()
		m0 = misses()
		ix.Warm(d)
		if misses() == m0 {
			t.Errorf("%s: Flush left the tables warm", phase)
		}
	}
}

// TestQueryRetainSweepsIndexAndCounter: Query.Retain forgets a
// superseded document version in the query's index and in its exact
// counter alike, keeps the live one, and CachedNodes counts both tables.
func TestQueryRetainSweepsIndexAndCounter(t *testing.T) {
	q, err := qsyntax.Parse(".*!x{ab}.*", docspanner.Options{Alphabet: []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := q.Index()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	version := func() *docspanner.Document {
		// Long enough that the index's tables pass RetainFloor too.
		b := make([]byte, 16<<10)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return docspanner.CompressDocument(b)
	}
	old, cur := version(), version()
	// The counter keeps a table for every inner node, the index for the
	// long ones (slpmatch.TabledNodes).
	inner := func(d *docspanner.Document) int { return d.GrammarSize() - 2 } // leaves a, b
	tabled := func(d *docspanner.Document) int { return slpmatch.TabledNodes(d.Node()) }
	for _, d := range []*docspanner.Document{old, cur} {
		if got, want := ix.ExactCount(d).Int64(), int64(countCompressed(q, d)); got != want {
			t.Fatalf("ExactCount = %d, Query count = %d", got, want)
		}
	}
	if got, want := q.CachedNodes(), inner(old)+inner(cur)+tabled(old)+tabled(cur); got != want {
		t.Fatalf("CachedNodes = %d, want %d (index and counter over two versions)", got, want)
	}
	if got, want := q.Retain([]*docspanner.Document{cur}), inner(old)+tabled(old); got != want {
		t.Errorf("Retain forgot %d nodes, want %d", got, want)
	}
	if got, want := q.CachedNodes(), inner(cur)+tabled(cur); got != want {
		t.Errorf("CachedNodes after Retain = %d, want %d", got, want)
	}
}
