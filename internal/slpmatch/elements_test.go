package slpmatch

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// refKey spells a reference value, so values can be counted by content
// without the element table.
func refKey(d *refData) string {
	var b []byte
	for p, s := range d.pure {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
		for _, m := range []*automata.BoolMatrix{d.em, d.ep} {
			for _, w := range m.Row(p) {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
	}
	return string(b)
}

// refValues returns the reference key of every tabled node of root's
// DAG, and the reference table they were read from.
func refValues(ix *Index, root *slp.Node) (map[*slp.Node]string, map[*slp.Node]*refData) {
	tab := refTable(ix, root)
	keys := map[*slp.Node]string{}
	for n, d := range tab {
		if tabled(n, blockLen) {
			keys[n] = refKey(d)
		}
	}
	return keys, tab
}

// nodeElements returns the distinct elements the Index's tabled nodes
// point at.
func nodeElements(ix *Index) map[*elem]bool {
	els := map[*elem]bool{}
	ix.nodes.each(func(nd *nodeData) { els[nd.e] = true })
	return els
}

// TestWarmProductsPerDistinctPair counts the work of one cold Warm on
// the log corpus against the distinct values, found by the reference
// definitions: combine (and so mulSparse) runs exactly once per
// distinct (left value, right value) pair of a tabled node, the tabled
// nodes point at exactly one element per distinct value, and the folds
// intern at most one element per distinct value of a block child's
// nonempty prefix — all without a fallback.
func TestWarmProductsPerDistinctPair(t *testing.T) {
	root := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	for _, q := range logQueries {
		ix := logIndex(t, q.src)
		f0 := FoldFallbacks()
		ix.Warm(root)
		keys, tab := refValues(ix, root)
		pairs, values, prefixes := map[[2]string]bool{}, map[string]bool{}, map[string]bool{}
		for n, k := range keys {
			values[k] = true
			pairs[[2]string{refKey(tab[n.Left()]), refKey(tab[n.Right()])}] = true
			for _, c := range []*slp.Node{n.Left(), n.Right()} {
				if long(c) {
					continue
				}
				text := c.Bytes()
				v := tab[slp.Leaf(text[0])]
				prefixes[refKey(v)] = true
				for _, b := range text[1:] {
					v = refConcat(ix.nq, v, tab[slp.Leaf(b)])
					prefixes[refKey(v)] = true
				}
			}
		}
		el := ix.el.Load()
		t.Logf("%s: %d combines for %d distinct pairs; %d node elements for %d distinct values; %d prefix elements for %d distinct prefix values",
			q.name, el.products, len(pairs), len(nodeElements(ix)), len(values), el.prefixes, len(prefixes))
		if el.products != len(pairs) {
			t.Errorf("%s: Warm combined %d times, want once per distinct (left, right) value pair (%d)", q.name, el.products, len(pairs))
		}
		if got := len(nodeElements(ix)); got != len(values) {
			t.Errorf("%s: tabled nodes point at %d elements, want one per distinct value (%d)", q.name, got, len(values))
		}
		if el.prefixes > len(prefixes) {
			t.Errorf("%s: folds interned %d prefix elements, want at most the %d distinct block-prefix values", q.name, el.prefixes, len(prefixes))
		}
		if n := FoldFallbacks() - f0; n != 0 {
			t.Errorf("%s: %d folds passed the step budget", q.name, n)
		}
	}
}

// TestElementLifetime serves 50 documents from one Index, each replacing
// the one before, with Retain on the live root after each step. The
// documents share no node, so every step sweeps; after each sweep the
// element table holds at most the distinct values of the live
// document's tabled nodes, found by the reference definitions, plus the
// empty word's and the letters' elements, and its memos name no element
// outside the table. Every enumeration matches the reference walk, and
// after a Flush only the empty word's and the letters' elements are
// left.
func TestElementLifetime(t *testing.T) {
	ix := NewIndex(spannerDEVA(t, `(a|b)*b!x{(a|b)(a|b)(a|b)}a(a|b)*`))
	rng := rand.New(rand.NewSource(3))
	peak := 0
	for i := 0; i < 50; i++ {
		doc := randomDoc(rng, 17<<10) // 1023 long nodes over blocks of 17 bytes
		keys, tab := refValues(ix, doc)
		got := collect(func(f func(spans.Tuple) bool) { ix.Each(doc, f) })
		want := collect(func(f func(spans.Tuple) bool) { refEach(ix, tab, doc, f) })
		if j := sameSequence(got, want); j >= 0 || len(got) == 0 {
			t.Fatalf("document %d: Each diverges from the reference at tuple %d (%d vs %d tuples)", i, j, len(got), len(want))
		}
		peak = max(peak, ix.Elements())
		forgotten := ix.Retain([]*slp.Node{doc})
		if i > 0 && forgotten == 0 {
			t.Fatalf("document %d: Retain did not sweep", i)
		}
		values := map[string]bool{}
		for _, k := range keys {
			values[k] = true
		}
		if n, bound := ix.Elements(), len(values)+fixedElements(ix); i > 0 && n > bound {
			t.Fatalf("document %d: %d elements after the sweep, want at most %d live values + %d fixed", i, n, len(values), fixedElements(ix))
		}
		checkMemosClosed(t, ix)
	}
	t.Logf("peak %d elements, %d after the last sweep, %d fixed", peak, ix.Elements(), fixedElements(ix))
	ix.Flush()
	if n, want := ix.Elements(), fixedElements(ix); n != want {
		t.Fatalf("after Flush: %d elements, want the %d fixed ones", n, want)
	}
}

// fixedElements counts the distinct elements an Index's element table
// keeps for its whole life: the empty word's and the letters'.
func fixedElements(ix *Index) int {
	seen := map[*elem]bool{}
	for _, e := range ix.el.Load().fixed {
		seen[e] = true
	}
	return len(seen)
}

// checkMemosClosed fails unless every element the product memo and the
// step rows of the table's elements name is in the table.
func checkMemosClosed(t *testing.T, ix *Index) {
	t.Helper()
	el := ix.el.Load()
	el.mu.Lock()
	defer el.mu.Unlock()
	in := map[*elem]bool{}
	for _, e := range el.byValue {
		in[e] = true
	}
	for k, e := range el.prod {
		if !in[k[0]] || !in[k[1]] || !in[e] {
			t.Fatal("the product memo names an element outside the table")
		}
	}
	for _, e := range el.byValue {
		if row := e.next.Load(); row != nil {
			for i := range *row {
				if nx := (*row)[i].Load(); nx != nil && !in[nx] {
					t.Fatal("a step row names an element outside the table")
				}
			}
		}
	}
}

// TestNewIndexAllocs bounds what a fresh Index and a fresh Counter
// allocate before they store anything: their tables allocate at first
// use, so the count does not grow with the number of table shards. A
// Counter's letter matrices are its own data and are counted apart.
func TestNewIndexAllocs(t *testing.T) {
	const bound = 16
	for _, q := range logQueries {
		d := logIndex(t, q.src).DEVA()
		n := testing.AllocsPerRun(20, func() { NewIndex(d) })
		t.Logf("%s: NewIndex allocates %.0f objects", q.name, n)
		if n > bound {
			t.Errorf("%s: NewIndex allocates %.0f objects, want at most %d", q.name, n, bound)
		}
		ct := NewCounter(d)
		own := 0
		seen := map[*big.Int]bool{}
		for _, m := range ct.leaf {
			for _, v := range m {
				if v != nil && !seen[v] {
					seen[v] = true
					own++
				}
			}
		}
		letters := len(d.Compiled().Letters)
		// Each big.Int is two objects, the struct and its words.
		ownObjects := 2*own + letters + 1 + 2*ct.nq
		n = testing.AllocsPerRun(20, func() { NewCounter(d) })
		t.Logf("%s: NewCounter allocates %.0f objects, %d of them its letter and final-vector data", q.name, n, ownObjects)
		if n > float64(ownObjects+bound) {
			t.Errorf("%s: NewCounter allocates %.0f objects, want at most its own %d and %d", q.name, n, ownObjects, bound)
		}
	}
}
