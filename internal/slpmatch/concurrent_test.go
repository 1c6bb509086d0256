package slpmatch

import (
	"fmt"
	"math/big"
	"math/rand"
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

// TestConcurrentWarmMatchesSequential warms one shared Index from 4
// goroutines at once, on the log corpus and on a 128-byte membership
// document: the table ends up with every tabled node, and the count,
// the element table and membership equal a sequentially warmed Index's.
func TestConcurrentWarmMatchesSequential(t *testing.T) {
	type doc struct {
		name string
		mk   func() *Index
		root *slp.Node
	}
	var docs []doc
	logRoot := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	for _, q := range logQueries {
		docs = append(docs, doc{q.name, func() *Index { return logIndex(t, q.src) }, logRoot})
	}
	ab := slp.Balance(slp.Compress([]byte(strings.Repeat("abbaabbbabababba", 8))))
	docs = append(docs, doc{"(a|b)*", func() *Index { return NewIndex(spannerDEVA(t, "(a|b)*")) }, ab})

	for _, c := range docs {
		seq := c.mk()
		seq.Warm(c.root)
		par := c.mk()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par.Warm(c.root)
			}()
		}
		wg.Wait()
		if got, want := par.CachedNodes(), TabledNodes(c.root); got != want {
			t.Errorf("%s: concurrent warm cached %d nodes, want %d", c.name, got, want)
		}
		if got, want := par.Elements(), seq.Elements(); got != want {
			t.Errorf("%s: concurrent warm interned %d elements, sequential %d", c.name, got, want)
		}
		if got, want := par.NonEmpty(c.root), seq.NonEmpty(c.root); got != want {
			t.Errorf("%s: NonEmpty after concurrent warm = %v, sequential %v", c.name, got, want)
		}
		if got, want := par.Count(c.root), seq.Count(c.root); got != want {
			t.Errorf("%s: Count after concurrent warm = %d, sequential %d", c.name, got, want)
		}
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
