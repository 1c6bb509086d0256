package slpmatch

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"

	"docspanner/internal/slp"
)

// TestFlushWhileInUse certifies the Flush contract under -race: emptying
// an Index's and a Counter's tables in place while other goroutines
// count, enumerate and warm on the same instances is free of data races
// and never changes a result, the instances keep their one table each
// (no second copy appears), and the process-wide traffic counters keep
// growing. spannerd exposes this as POST /admin/flush-caches on a live
// server.
func TestFlushWhileInUse(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	docs := make([]*slp.Node, 5)
	want := make([]int, len(docs))
	ref := NewIndex(d)
	for i := range docs {
		docs[i] = slp.Repeat(slp.FromBytes([]byte("ab")), int64(32+i))
		want[i] = ref.Count(docs[i])
	}
	ix, ct := NewIndex(d), NewCounter(d)
	h0, m0 := CacheStats()

	const (
		workers    = 8
		iterations = 40
	)
	var stop atomic.Bool
	var wg, flushWG sync.WaitGroup
	errs := make(chan error, 3*workers*iterations)

	flushWG.Add(1)
	go func() {
		defer flushWG.Done()
		for !stop.Load() {
			ix.Flush()
			ct.Flush()
		}
	}()

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				j := (g + it) % len(docs)
				if got := ix.Count(docs[j]); got != want[j] {
					errs <- fmt.Errorf("goroutine %d: Count(doc %d) = %d, want %d", g, j, got, want[j])
				}
				if got := ix.All(docs[j]).Len(); got != want[j] {
					errs <- fmt.Errorf("goroutine %d: All(doc %d) has %d tuples, want %d", g, j, got, want[j])
				}
				if got := ct.Count(docs[j]); got.Cmp(big.NewInt(int64(want[j]))) != 0 {
					errs <- fmt.Errorf("goroutine %d: exact Count(doc %d) = %v, want %d", g, j, got, want[j])
				}
				ix.Warm(docs[j])
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

	if h1, m1 := CacheStats(); h1 < h0 || m1 <= m0 {
		t.Errorf("traffic counters rewound or stood still across flushes: (%d,%d) -> (%d,%d)", h0, m0, h1, m1)
	}
	// After a last flush the tables are empty, and one warm refills the
	// same table: a second one over the same document misses nothing.
	ix.Flush()
	if n := ix.CachedNodes(); n != 0 {
		t.Fatalf("CachedNodes after Flush = %d, want 0", n)
	}
	ix.Warm(docs[0])
	_, before := CacheStats()
	ix.Warm(docs[0])
	if _, after := CacheStats(); after != before {
		t.Errorf("second Warm after a Flush missed %d nodes, want 0", after-before)
	}
}
