package slpmatch

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// randomDoc is an uncompressed balanced parse of n random bytes over
// {a,b}: n−1 inner nodes, none shared with any other document.
func randomDoc(rng *rand.Rand, n int) *slp.Node {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ab"[rng.Intn(2)]
	}
	return slp.FromBytes(b)
}

// innerNodes counts the distinct inner nodes of the DAGs under roots:
// the nodes a Counter or Matcher keeps a table for.
func innerNodes(roots ...*slp.Node) int { return nodesLongerThan(1, roots...) }

// longNodes counts the distinct nodes longer than blockLen of the DAGs
// under roots — the nodes an Index keeps a table for — by the
// definition, with no table code.
func longNodes(roots ...*slp.Node) int { return nodesLongerThan(blockLen, roots...) }

func nodesLongerThan(b int64, roots ...*slp.Node) int {
	seen := map[*slp.Node]bool{}
	var visit func(n *slp.Node)
	visit = func(n *slp.Node) {
		if n == nil || n.IsLeaf() || seen[n] {
			return
		}
		seen[n] = true
		visit(n.Left())
		visit(n.Right())
	}
	for _, r := range roots {
		visit(r)
	}
	n := 0
	for m := range seen {
		if m.Len() > b {
			n++
		}
	}
	return n
}

// TestRetainDropsOnlyUnreachable warms an Index and a Counter on a
// document, two edits of it and an unrelated document, then keeps the
// last edit and the unrelated document: a sweep leaves exactly their
// tabled nodes (the Index's long ones, the Counter's inner ones),
// re-warming them misses nothing, and a second sweep right away is
// within budget and does nothing. The documents hold a few thousand
// long nodes, so the Index's table passes RetainFloor.
func TestRetainDropsOnlyUnreachable(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	rng := rand.New(rand.NewSource(7))
	v0 := randomDoc(rng, 64<<10)
	v1 := insertAt(v0, 1000, "abba")
	v2 := deleteAt(v1, 3000, 500)
	other := randomDoc(rng, 32<<10)
	all := []*slp.Node{v0, v1, v2, other}
	live := []*slp.Node{v2, other}

	ix, ct := NewIndex(d), NewCounter(d)
	for _, r := range all {
		ix.Warm(r)
		ct.Count(r)
	}
	if got, want := ix.CachedNodes(), longNodes(all...); got != want {
		t.Fatalf("CachedNodes after warming = %d, want %d", got, want)
	}
	wantCount := ix.Count(v2)

	f0 := ForgottenNodes()
	forgotten := ix.Retain(live)
	liveLong, liveInner := longNodes(live...), innerNodes(live...)
	if got := ix.CachedNodes(); got != liveLong {
		t.Errorf("Index: CachedNodes after Retain = %d, want the %d live long nodes", got, liveLong)
	}
	if want := longNodes(all...) - liveLong; forgotten != want {
		t.Errorf("Index: Retain forgot %d nodes, want %d", forgotten, want)
	}
	ctForgotten := ct.Retain(live)
	if got := ct.CachedNodes(); got != liveInner {
		t.Errorf("Counter: CachedNodes after Retain = %d, want %d", got, liveInner)
	}
	if got := ForgottenNodes() - f0; got < uint64(forgotten+ctForgotten) {
		t.Errorf("ForgottenNodes grew by %d, want at least %d", got, forgotten+ctForgotten)
	}

	_, m0 := CacheStats()
	for _, r := range live {
		ix.WarmDelta(nil, r)
		ct.WarmDelta(nil, r)
	}
	if _, m1 := CacheStats(); m1 != m0 {
		t.Errorf("re-warming the live documents missed %d nodes, want 0", m1-m0)
	}
	if got := ix.Count(v2); got != wantCount {
		t.Errorf("Count(v2) after Retain = %d, want %d", got, wantCount)
	}
	if got := ct.Count(v2); got.Cmp(big.NewInt(int64(wantCount))) != 0 {
		t.Errorf("exact Count(v2) after Retain = %v, want %d", got, wantCount)
	}

	// The table has not grown since the sweep: no second walk.
	if n := ix.Retain(nil); n != 0 {
		t.Errorf("Retain within budget forgot %d nodes, want 0", n)
	}
	// A forgotten version is recomputed on demand.
	if got, want := ix.Count(v0), NewIndex(d).Count(v0); got != want {
		t.Errorf("Count(v0) after it was forgotten = %d, want %d", got, want)
	}
	// A new document grows the table past the budget, so the next sweep
	// runs and forgets it together with v0's recomputed spine.
	extra := randomDoc(rng, 64<<10)
	ix.Warm(extra)
	if n, want := ix.Retain(live), longNodes(v0, extra, v2, other)-liveLong; n != want {
		t.Errorf("Retain past budget forgot %d nodes, want %d", n, want)
	}
}

// TestRetainBelowFloor: a table smaller than RetainFloor is never swept.
func TestRetainBelowFloor(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex(d)
	ix.Warm(randomDoc(rng, RetainFloor/2))
	ix.Warm(randomDoc(rng, RetainFloor/4))
	if n := ix.Retain(nil); n != 0 || ix.CachedNodes() == 0 {
		t.Errorf("Retain below the floor forgot %d nodes, leaving %d", n, ix.CachedNodes())
	}
}

// TestRetainWhileInUse certifies the Retain contract under -race:
// sweeps that keep changing the live set race Each, CountTotal and
// WarmDelta on one Index, and every result equals the one an unswept
// index gives.
func TestRetainWhileInUse(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	rng := rand.New(rand.NewSource(11))
	versions := []*slp.Node{randomDoc(rng, 64<<10)} // past RetainFloor in long nodes
	for i := 0; i < 5; i++ {
		prev := versions[len(versions)-1]
		versions = append(versions, insertAt(prev, rng.Int63n(prev.Len()+1), "ab"))
	}
	ref := NewIndex(d)
	want := make([][]spans.Tuple, len(versions))
	for i, r := range versions {
		want[i] = collect(func(f func(spans.Tuple) bool) { ref.Each(r, f) })
	}

	ix := NewIndex(d)
	const (
		workers    = 6
		iterations = 12
	)
	var stop atomic.Bool
	var wg, sweepWG sync.WaitGroup
	var forgotten atomic.Int64
	errs := make(chan error, 3*workers*iterations)

	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		for i := 0; !stop.Load(); i++ {
			// Alternate between keeping one version and keeping none, so
			// every sweep past the budget forgets nodes some worker uses.
			var live []*slp.Node
			if i%2 == 0 {
				live = versions[i/2%len(versions) : i/2%len(versions)+1]
			}
			forgotten.Add(int64(ix.Retain(live)))
		}
	}()

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				j := (g + it) % (len(versions) - 1)
				ix.WarmDelta(versions[j], versions[j+1])
				if got := collect(func(f func(spans.Tuple) bool) { ix.Each(versions[j+1], f) }); sameSequence(got, want[j+1]) >= 0 {
					errs <- fmt.Errorf("goroutine %d: Each(version %d) differs at tuple %d", g, j+1, sameSequence(got, want[j+1]))
				}
				if got, complete := ix.CountTotal(versions[j], nil, nil); got != len(want[j]) || !complete {
					errs <- fmt.Errorf("goroutine %d: CountTotal(version %d) = %d (complete %v), want %d", g, j, got, complete, len(want[j]))
				}
			}
		}(g)
	}

	wg.Wait()
	stop.Store(true)
	sweepWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if forgotten.Load() == 0 {
		t.Error("no sweep forgot anything: the test raced nothing")
	}
}

// BenchmarkRetainSweep times one sweep of an index that holds a live
// 256 KiB CDE concatenation of 16 KiB Re-Pair-compressed logs plus 64
// superseded versions of it, each one line-sized edit away from the
// next (the edit pattern of a maintained view), reporting ns per live
// inner node.
func BenchmarkRetainSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	versions := []*slp.Node{compressedLog(rng, 8, 16<<10, 16)}
	for i := 0; i < 64; i++ {
		prev := versions[len(versions)-1]
		pos := rng.Int63n(prev.Len() - 64)
		if i%2 == 0 {
			versions = append(versions, insertAt(prev, pos, "[00:00] auth req=r1 msg=ok\n"))
		} else {
			versions = append(versions, deleteAt(prev, pos, 28))
		}
	}
	live := versions[len(versions)-1:]
	liveInner := innerNodes(live...)
	ix := logIndex(b, logQueries[2].src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix.Flush()
		ix.nodes.kept = 0
		for _, r := range versions {
			ix.Warm(r)
		}
		b.StartTimer()
		if ix.Retain(live) == 0 {
			b.Fatal("the sweep forgot nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*liveInner), "ns/live-node")
}
