package slpmatch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
)

// insertAt returns the document with s inserted at byte offset pos — the
// node surgery a CDE insert performs, sharing everything but the O(log d)
// spine with root.
func insertAt(root *slp.Node, pos int64, s string) *slp.Node {
	mid := slp.FromBytes([]byte(s))
	return slp.Concat(slp.Concat(slp.Extract(root, 0, pos), mid), slp.Extract(root, pos, root.Len()))
}

// deleteAt removes doc[pos:pos+k].
func deleteAt(root *slp.Node, pos, k int64) *slp.Node {
	return slp.Concat(slp.Extract(root, 0, pos), slp.Extract(root, pos+k, root.Len()))
}

// TestWarmDeltaMatchesCold certifies that WarmDelta-maintained indexes
// (a spanner's and a membership one) and a counter agree with cold
// evaluation after every edit of a random edit sequence.
func TestWarmDeltaMatchesCold(t *testing.T) {
	exprs := []string{
		".*!x{ab}.*",
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"(!x{aa}|!x{bb}).*",
	}
	rng := rand.New(rand.NewSource(42))
	for _, src := range exprs {
		d := spannerDEVA(t, src)
		ix := NewIndex(d)
		ct := NewCounter(d)
		m := NewIndex(spannerDEVA(t, "(ab)*"))

		// Twice blockLen, so every version has a long spine to recompute.
		doc := []byte(strings.Repeat("abbaabababba", blockLen/6))
		root := slp.Balance(slp.Compress(doc))
		ix.Warm(root)
		m.Warm(root)
		ct.Count(root)

		for step := 0; step < 12; step++ {
			old := root
			if rng.Intn(3) == 0 && root.Len() > 4 {
				pos := rng.Int63n(root.Len() - 2)
				root = deleteAt(root, pos, 1+rng.Int63n(2))
			} else {
				pos := rng.Int63n(root.Len() + 1)
				root = insertAt(root, pos, []string{"a", "b", "ab", "ba"}[rng.Intn(4)])
			}
			st := ix.WarmDelta(old, root)
			if st.Recomputed == 0 && old != root {
				t.Fatalf("%q step %d: WarmDelta recomputed nothing for a fresh spine", src, step)
			}
			m.WarmDelta(old, root)
			ct.WarmDelta(old, root)

			bytes := root.Bytes()
			want := enum.NewEnumerator(d, bytes).All()
			got := ix.All(root)
			if !got.Equal(want) {
				t.Fatalf("%q step %d: index result diverged after WarmDelta on %q", src, step, bytes)
			}
			if gc := ct.Count(root); gc.Int64() != int64(want.Len()) {
				t.Fatalf("%q step %d: counter = %v, want %d", src, step, gc, want.Len())
			}
			wantAccept := len(bytes)%2 == 0 && func() bool {
				for i := 0; i < len(bytes); i += 2 {
					if bytes[i] != 'a' || bytes[i+1] != 'b' {
						return false
					}
				}
				return true
			}()
			if m.NonEmpty(root) != wantAccept {
				t.Fatalf("step %d: membership diverged after WarmDelta on %q", step, bytes)
			}
		}
	}
}

// TestWarmDeltaSpineIsLogarithmic pins the O(log d) claim: after a full
// warm, one insert edit on a document of length n recomputes O(log n)
// nodes while the rest of the DAG is reused through the cache.
func TestWarmDeltaSpineIsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		d := spannerDEVA(t, ".*!x{ab}.*") // fresh DEVA per size → fresh core
		ix := NewIndex(d)
		doc := make([]byte, n)
		for i := range doc {
			doc[i] = "ab"[rng.Intn(2)]
		}
		root := slp.FromBytes(doc) // balanced, 2n−1 nodes, order ~log n
		ix.WarmParallel(root, 0)
		inner := longNodes(root)

		logN := math.Log2(float64(n))
		budget := int(6*logN + 24) // generous constant; rejects any O(n) regression
		for edit := 0; edit < 8; edit++ {
			old := root
			root = insertAt(root, rng.Int63n(root.Len()+1), "ab")
			st := ix.WarmDelta(old, root)
			if st.Recomputed > budget {
				t.Fatalf("n=%d edit %d: recomputed %d nodes, want ≤ %d (~log n)", n, edit, st.Recomputed, budget)
			}
			if st.Reused == 0 {
				t.Fatalf("n=%d edit %d: no reused subtree boundary — sharing broken", n, edit)
			}
			if st.CachedBefore < inner {
				t.Fatalf("n=%d edit %d: CachedBefore = %d, want ≥ %d (the pre-edit DAG's long nodes)", n, edit, st.CachedBefore, inner)
			}
		}
	}
}

// TestWarmDeltaColdBaseline: WarmDelta with a nil old root (or an
// unwarmed old root) must still produce a fully correct index — it just
// does the full warm.
func TestWarmDeltaColdBaseline(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	ix := NewIndex(d)
	doc := []byte(strings.Repeat("abababbaab", blockLen/5)) // twice blockLen
	root := slp.Balance(slp.Compress(doc))
	st := ix.WarmDelta(nil, root)
	if st.Recomputed == 0 {
		t.Fatalf("cold WarmDelta computed nothing")
	}
	want := enum.NewEnumerator(d, doc).All()
	if !ix.All(root).Equal(want) {
		t.Fatalf("cold WarmDelta index diverged")
	}
	// Old root never warmed: ensure() warms it first, then the delta.
	d2 := spannerDEVA(t, ".*!x{ba}.*")
	ix2 := NewIndex(d2)
	old := slp.FromBytes([]byte("abba"))
	cur := insertAt(old, 2, "ab")
	ix2.WarmDelta(old, cur)
	want2 := enum.NewEnumerator(d2, cur.Bytes()).All()
	if !ix2.All(cur).Equal(want2) {
		t.Fatalf("WarmDelta from unwarmed old root diverged")
	}
}

// TestWarmDeltaStatsMonotonic: the process-wide totals grow with every
// delta call and never rewind (they back the Prometheus counters).
func TestWarmDeltaStatsMonotonic(t *testing.T) {
	r0, u0 := WarmDeltaStats()
	d := spannerDEVA(t, ".*!x{ab}.*")
	ix := NewIndex(d)
	root := slp.FromBytes([]byte("abababab"))
	ix.Warm(root)
	cur := insertAt(root, 4, "ab")
	st := ix.WarmDelta(root, cur)
	r1, u1 := WarmDeltaStats()
	if r1 < r0+uint64(st.Recomputed) || u1 < u0+uint64(st.Reused) {
		t.Fatalf("totals did not advance: (%d,%d) -> (%d,%d), call stats %+v", r0, u0, r1, u1, st)
	}
}

// TestWarmDeltaWhileFlush certifies WarmDelta under the Flush contract,
// in the style of TestFlushWhileInUse: concurrent edit maintenance and
// counting on one shared Index racing continuous in-place flushes is
// free of data races and never changes a result.
func TestWarmDeltaWhileFlush(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	base := slp.Repeat(slp.FromBytes([]byte("ab")), 64)
	versions := make([]*slp.Node, 6)
	versions[0] = base
	for i := 1; i < len(versions); i++ {
		versions[i] = insertAt(versions[i-1], int64(2*i), "ab")
	}
	ref := NewIndex(d)
	want := make([]int, len(versions))
	for i, v := range versions {
		want[i] = ref.Count(v)
	}

	const workers = 8
	var stop atomic.Bool
	var wg, flushWG sync.WaitGroup
	errs := make(chan error, workers*32)

	ix := NewIndex(d)
	flushWG.Add(1)
	go func() {
		defer flushWG.Done()
		for !stop.Load() {
			ix.Flush()
		}
	}()

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 32; it++ {
				j := (g + it) % (len(versions) - 1)
				ix.WarmDelta(versions[j], versions[j+1])
				if got := ix.Count(versions[j+1]); got != want[j+1] {
					errs <- fmt.Errorf("goroutine %d: Count(version %d) = %d, want %d", g, j+1, got, want[j+1])
				}
			}
		}(g)
	}

	wg.Wait()
	stop.Store(true)
	flushWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkWarmDeltaEdit is the E21 micro-benchmark: one insert edit on
// a fully warmed 64 KiB document, maintained incrementally.
func BenchmarkWarmDeltaEdit(b *testing.B) {
	ast, err := regex.Parse(".*!x{ab}.*")
	if err != nil {
		b.Fatal(err)
	}
	nfa, err := regex.Compile(ast, regex.Options{Alphabet: []byte("abc")})
	if err != nil {
		b.Fatal(err)
	}
	d := automata.Determinize(nfa)
	ix := NewIndex(d)
	doc := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(5))
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	root := slp.FromBytes(doc)
	ix.WarmParallel(root, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := root
		root = insertAt(root, rng.Int63n(root.Len()+1), "ab")
		ix.WarmDelta(old, root)
	}
}
