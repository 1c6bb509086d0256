package slpmatch

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// Race-regression tests for the node tables. Run with -race: one
// Index/Counter instance is hammered from 8 goroutines, with a
// fresh (cold-cache) document mix so that concurrent node computation
// actually happens, and every goroutine must see the sequential answers.

func TestSharedIndexConcurrent(t *testing.T) {
	d := spannerDEVA(t, ".*!x{ab}.*")
	docs := make([]*slp.Node, 6)
	want := make([]int, len(docs))
	refIx := NewIndex(d)
	for i := range docs {
		docs[i] = slp.Repeat(slp.FromBytes([]byte("ab")), int64(64+i))
		want[i] = refIx.Count(docs[i])
	}

	ix := NewIndex(d) // cold tables: the goroutines race to fill them
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(docs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range docs {
				j := (i + g) % len(docs)
				if got := ix.Count(docs[j]); got != want[j] {
					errs <- fmt.Errorf("goroutine %d: Count(doc %d) = %d, want %d", g, j, got, want[j])
				}
				if !ix.NonEmpty(docs[j]) {
					errs <- fmt.Errorf("goroutine %d: NonEmpty(doc %d) = false", g, j)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSharedMatcherAndCounterConcurrent(t *testing.T) {
	m := NewIndex(spannerDEVA(t, "(ab)*"))
	ct := NewCounter(spannerDEVA(t, ".*!x{ab}.*"))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := int64(60); k < 68; k++ {
				root := slp.Repeat(slp.FromBytes([]byte("ab")), k)
				if !m.NonEmpty(root) {
					errs <- fmt.Errorf("goroutine %d: (ab)^%d rejected", g, k)
				}
				if got := ct.Count(root); got.Cmp(big.NewInt(k)) != 0 {
					errs <- fmt.Errorf("goroutine %d: Count((ab)^%d) = %v", g, k, got)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWarmParallelMatchesSequential(t *testing.T) {
	d := spannerDEVA(t, ".*!x{(a|b)+}.*")
	root := slp.Balance(slp.Compress([]byte("abbaabbbabababba")))
	seq := NewIndex(d)
	seq.Warm(root)
	wantCount := seq.Count(root)
	wantNodes := seq.CachedNodes()

	par := NewIndex(d)
	par.WarmParallel(root, 4)
	if got := par.CachedNodes(); got != wantNodes {
		t.Errorf("WarmParallel cached %d nodes, sequential %d", got, wantNodes)
	}
	if got := par.Count(root); got != wantCount {
		t.Errorf("Count after WarmParallel = %d, want %d", got, wantCount)
	}

	// Membership on a document long enough to have tables.
	doc := slp.Balance(slp.Compress([]byte(strings.Repeat("abbaabbbabababba", 8))))
	m := NewIndex(spannerDEVA(t, "(a|b)*"))
	m.WarmParallel(doc, 4)
	if got, want := m.CachedNodes(), TabledNodes(doc); got != want {
		t.Errorf("WarmParallel cached %d nodes, want %d", got, want)
	}
	if !m.NonEmpty(doc) {
		t.Error("NonEmpty after WarmParallel = false")
	}
}

func TestIndexEnumMidDocStart(t *testing.T) {
	// Regression for the cached final-alive vector: enumeration touching
	// every boundary must agree with a fresh index.
	d := spannerDEVA(t, ".*!x{ab}.*")
	root := slp.Repeat(slp.FromBytes([]byte("ab")), 40)
	ix := NewIndex(d)
	got := spans.NewRelation()
	ix.Each(root, func(tu spans.Tuple) bool { got.Add(tu); return true })
	if got.Len() != 40 {
		t.Errorf("enumerated %d tuples, want 40", got.Len())
	}
}
