package slpmatch

import (
	"sync/atomic"
	"unsafe"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// nodeData is the per-node payload of an index, for a node longer than
// blockLen: a pointer to the node's element — its deterministic
// pure-letter step function P, its mask-anywhere reachability matrix E
// (at every boundary before a letter, at most one mask may fire) and its
// at-least-one-mask matrix E⁺, used to prune subtrees without result
// events — which the Index interns by value, so every node with the
// same value shares one (see elemTable); the alive-vector pullback reads
// E directly (ApplyRightInto), so no transpose is stored. The data links
// to its long children's data and carries the text of its block
// children and its left child's text length, so the enumeration walk
// reads no table and no SLP node.
type nodeData struct {
	e    *elem
	l, r *nodeData // nil for a block child
	text string    // the block children's bytes, the left one's first
	ln   int64     // the left child's text length
}

// leftText returns the text of a block left child, and rightText that of
// a block right child. The walk only reads them.
func (nd *nodeData) leftText() []byte { return bytesOf(nd.text[:nd.ln]) }
func (nd *nodeData) rightText() []byte {
	if nd.l == nil {
		return bytesOf(nd.text[nd.ln:])
	}
	return bytesOf(nd.text)
}

// bytesOf views s as a byte slice, which must not be written.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Index enumerates a deterministic extended vset-automaton's spanner
// over SLP-compressed documents. It owns the compiled automaton, dense
// per-byte data, the final-alive vector, the concurrent table of the
// nodes longer than blockLen and the element table their data points
// into; an Index is safe for concurrent use, and everything that holds
// the same Index shares its tables.
type Index struct {
	c          *automata.CompiledDEVA
	nq         int
	words      int
	nodes      *nodeCache[*nodeData]
	el         atomic.Pointer[elemTable] // nil until the first build
	lt         *letterTable
	quiet      []bool
	finalAlive []uint64
}

// NewIndex prepares an index, with tables of its own, for the given
// deterministic eVA.
func NewIndex(d *automata.DEVA) *Index {
	c := d.Compiled()
	nq := c.NQ
	ix := &Index{c: c, nq: nq, words: (nq + 63) / 64, nodes: newNodeCache[*nodeData](blockLen)}
	ix.lt = newLetterTable(c, ix.words)
	ix.quiet = quietStates(c)

	// States accepting at the end boundary: directly final, or final
	// after one last mask.
	v := automata.NewBitVec(nq)
	for q := 0; q < nq; q++ {
		if c.Final[q] {
			automata.BitSet(v, q)
			continue
		}
		for _, me := range c.MaskEdges[q] {
			if c.Final[me.To] {
				automata.BitSet(v, q)
				break
			}
		}
	}
	ix.finalAlive = v
	return ix
}

// elems returns the element table, allocating it at first use.
func (ix *Index) elems() *elemTable {
	if t := ix.el.Load(); t != nil {
		return t
	}
	ix.el.CompareAndSwap(nil, newElemTable(ix))
	return ix.el.Load()
}

// node computes (memoized) the data of a node longer than blockLen.
// Concurrent computation of the same node yields equal data;
// last-write-wins is harmless.
func (ix *Index) node(n *slp.Node) *nodeData { return (&builder{ix: ix}).node(n) }

// builder computes long nodes' data for one caller — a Warm or a
// WarmDelta — with scratch of its own, allocated at first use, so
// concurrent callers share nothing but the tables. It reads the element table once, at its first build, so a
// Flush racing it leaves it on the old table, whose values are as good.
type builder struct {
	ix   *Index
	t    *elemTable
	l, r *elem       // a block child's value once its fold passed the step budget
	p    *elem       // a product or a step before it is interned
	buf  []byte      // the block text of the node being built
	vecs [4][]uint64 // blockData's forward pass above 64 states
}

func (b *builder) node(n *slp.Node) *nodeData {
	if nd, ok := b.ix.nodes.get(n); ok {
		return nd
	}
	nd := b.build(n)
	b.ix.nodes.put(n, nd)
	return nd
}

// build derives a long node's data from its children's: a long child's
// element from the table, a block child's by folding its bytes (fold),
// and the node's as their product (product).
func (b *builder) build(n *slp.Node) *nodeData {
	if b.t == nil {
		b.t = b.ix.elems()
	}
	l, r := n.Left(), n.Right()
	nd := &nodeData{ln: l.Len()}
	if long(l) {
		nd.l = b.node(l)
	}
	if long(r) {
		nd.r = b.node(r)
	}
	// The children are built; the text buffer is this node's.
	b.buf = b.buf[:0]
	if nd.l == nil {
		b.buf = appendText(b.buf, l)
	}
	if nd.r == nil {
		b.buf = appendText(b.buf, r)
	}
	if len(b.buf) > 0 {
		nd.text = string(b.buf)
	}
	var le, re *elem
	lok, rok := true, true
	if nd.l != nil {
		le = nd.l.e
	} else {
		le, lok = b.fold(nd.leftText(), &b.l)
	}
	if nd.r != nil {
		re = nd.r.e
	} else {
		re, rok = b.fold(nd.rightText(), &b.r)
	}
	nd.e = b.product(le, re, lok && rok)
	return nd
}

// fold returns the element of a block's text: the empty word's element
// stepped through the text's letter classes, one lookup per byte once
// the step rows hold them, with each missing step derived from its
// source by blockData and interned (fill). ok is false when a missing
// step is needed after the table's step budget ran out: the rest of the
// text is then folded by blockData into *sd, allocated on first use,
// and the value is returned from there, uninterned.
func (b *builder) fold(text []byte, sd **elem) (e *elem, ok bool) {
	e = b.t.empty
	for j, c := range text {
		k := b.ix.lt.class[c]
		if nx := e.step(k); nx != nil {
			e = nx
			continue
		}
		var nx *elem
		if !b.t.full.Load() {
			nx = b.fill(e, k, text[j:j+1])
		}
		if nx == nil {
			s := b.scratch(sd)
			b.ix.blockData(s, e, text[j:], &b.vecs)
			foldFallbacks.Add(1)
			return s, false
		}
		e = nx
	}
	return e, true
}

// fill derives e's successor over letter, of class k, interns it and
// records the step in e's step row. It returns nil if the table's step
// budget ran out meanwhile.
func (b *builder) fill(e *elem, k uint16, letter []byte) *elem {
	s := b.scratch(&b.p)
	b.ix.blockData(s, e, letter, &b.vecs)
	t := b.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if nx := e.step(k); nx != nil {
		return nx // a concurrent fold filled it
	}
	if t.full.Load() {
		return nil
	}
	nx := t.byValue[s.key()]
	if nx == nil {
		nx = t.add(s)
		t.prefixes++
	}
	t.setStep(e, k, nx)
	return nx
}

// product returns the element of the concatenation of values l and r:
// with memo (both are interned), a lookup in the product memo first;
// otherwise, or on a miss, combine into scratch and intern the result.
func (b *builder) product(l, r *elem, memo bool) *elem {
	t, key := b.t, [2]*elem{l, r}
	if memo {
		t.mu.Lock()
		e := t.prod[key]
		t.mu.Unlock()
		if e != nil {
			return e
		}
	}
	s := b.scratch(&b.p)
	b.ix.combine(s, l, r)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.products++
	e := t.intern(s)
	if memo {
		t.prod[key] = e
	}
	return e
}

// scratch returns *sd, allocating it on first use.
func (b *builder) scratch(sd **elem) *elem {
	if *sd == nil {
		*sd = newElem(b.ix.nq)
	}
	return *sd
}

// combine derives a concatenation's value from its parts' into nd.
func (ix *Index) combine(nd, l, r *elem) {
	nq := ix.nq
	for q := 0; q < nq; q++ {
		if l.pure[q] >= 0 {
			nd.pure[q] = r.pure[l.pure[q]]
		} else {
			nd.pure[q] = -1
		}
	}
	nd.em.MulInto(&l.em, &r.em)
	// E⁺_AB = E⁺_A·E_B  ∨  P_A ; E⁺_B (mask in the left part, or pure
	// left then mask in the right part).
	nd.ep.MulInto(&l.ep, &r.em)
	for q := 0; q < nq; q++ {
		if l.pure[q] >= 0 {
			src := r.ep.Row(int(l.pure[q]))
			dst := nd.ep.Row(q)
			for k := range dst {
				dst[k] |= src[k]
			}
		}
	}
}

// DEVA returns the underlying deterministic automaton.
func (ix *Index) DEVA() *automata.DEVA { return ix.c.DEVA }

// Flush empties the node table in place, releasing the per-node data of
// every document seen so far, and replaces the element table by a fresh
// one that holds only the empty word's and the letters' elements. Safe
// while other goroutines warm, enumerate or count on the same Index:
// they recompute what they miss, and everything that holds this Index
// keeps sharing the one table.
func (ix *Index) Flush() {
	ix.nodes.flush()
	if ix.el.Load() != nil {
		ix.el.Store(newElemTable(ix))
	}
}

// Retain forgets the per-node data of every node that no root of live
// reaches — the versions the database has superseded or deleted — and
// returns how many nodes it forgot; a sweep also drops from the element
// table and its memos every element that no retained node references,
// except the empty word's and the letters'. live must list every
// document the Index is still meant to serve warm; a live node it misses
// is merely recomputed on its next use. The sweep walks the live DAG, so
// it runs only once the table has grown past its budget since the last
// sweep (see the package's table lifetime rule); other calls return 0 at
// the cost of a size count. Safe while other goroutines warm, enumerate
// or count on the same Index, like Flush: a walk in flight follows the
// data links it already holds and looks nothing up.
func (ix *Index) Retain(live []*slp.Node) int {
	n, swept := ix.nodes.retain(live)
	if t := ix.el.Load(); swept && t != nil {
		t.sweep(func(keep func(*elem)) {
			ix.nodes.each(func(nd *nodeData) { keep(nd.e) })
		})
	}
	return n
}

// Elements reports the number of elements in this Index's element
// table: the distinct (P, E, E⁺) values of its tabled nodes and of the
// block prefixes its folds stepped through, and those of the empty word
// and of each letter.
func (ix *Index) Elements() int {
	if t := ix.el.Load(); t != nil {
		return t.len()
	}
	return 0
}

// Warm precomputes the index for all long nodes of a document — the
// preprocessing phase, linear in the SLP size (data complexity). A
// document of at most blockLen bytes has no table.
func (ix *Index) Warm(root *slp.Node) {
	if long(root) {
		ix.node(root)
	}
}

// CachedNodes reports the number of SLP nodes longer than blockLen with
// computed data in this Index's table.
func (ix *Index) CachedNodes() int { return ix.nodes.len() }

// WarmDelta brings the index up to date after an edit that turned
// oldRoot into newRoot: the traversal prunes at every node whose data is
// already cached, so it computes P/E/E⁺ data only for the O(log d)
// fresh long spine nodes of the edit (Section 4.3 — the hash-consed
// subtrees shared with oldRoot are free, and blocks have no data). A nil
// oldRoot warms newRoot from whatever is cached. Safe for concurrent
// use, like Warm.
func (ix *Index) WarmDelta(oldRoot, newRoot *slp.Node) WarmStats {
	b := &builder{ix: ix}
	return ix.nodes.warmDelta(oldRoot, newRoot, ix.Warm, func(n *slp.Node) { b.node(n) })
}

// NonEmpty decides whether the spanner result on 𝔇(root) is non-empty,
// in compressed time (no decompression beyond a block root's text).
func (ix *Index) NonEmpty(root *slp.Node) bool {
	if long(root) {
		v := ix.node(root).e.em.ApplyRight(ix.finalAlive)
		return vecGet(v, ix.c.Start)
	}
	var text []byte
	if root != nil {
		text = appendText(nil, root)
	}
	v := automata.NewBitVec(ix.nq)
	automata.BitSet(v, ix.c.Start)
	return (&cenum{ix: ix}).meets(v, text, nil, ix.finalAlive)
}

// event mirrors the uncompressed enumerator's event type.
type event struct {
	boundary int64
	mask     automata.Mask
}

// Each enumerates the spanner's result tuples on 𝔇(root) without
// decompressing the document: after Warm (linear in |S|), the delay
// between consecutive tuples is O((ord(root) + blockLen) ·
// poly(automaton)) — i.e. O(log |D|) on balanced SLPs, matching the
// survey's Section 4 bound.
// Enumeration stops early when f returns false. Concurrent Each calls on
// one Index are safe; each call keeps its own traversal state.
func (ix *Index) Each(root *slp.Node, f func(spans.Tuple) bool) {
	ix.Warm(root)
	e := &cenum{ix: ix, root: root, emit: f}
	e.run(make([]event, 0, 2*len(ix.c.DEVA.Index.Vars())+1))
}

// Count returns the number of result tuples. It runs the walk in
// count-only mode: no tuples, no events, no per-tuple allocation.
func (ix *Index) Count(root *slp.Node) int {
	n, _ := ix.CountTotal(root, nil, nil)
	return n
}

// CountTotal counts the tuples assigning every variable of vars (all
// tuples when vars is empty) without materializing them: the walk
// accumulates fired masks and tests the open-marker bits, exactly like
// the uncompressed enumerator's counting walk. poll, if non-nil, runs
// once per counted tuple; returning false aborts, reporting
// complete=false with the partial count.
func (ix *Index) CountTotal(root *slp.Node, vars spans.VarSet, poll func() bool) (n int, complete bool) {
	need, ok := ix.c.DEVA.Index.OpenBits(vars)
	if !ok {
		return 0, true
	}
	ix.Warm(root)
	e := &cenum{ix: ix, root: root, countOnly: true, need: need, poll: poll}
	e.run(nil)
	return e.count, !e.aborted
}

// All materializes the relation (tests and small outputs only).
func (ix *Index) All(root *slp.Node) *spans.Relation {
	out := spans.NewRelation()
	ix.Each(root, func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}

// cenum is one enumeration pass: a single left-to-right walk of the
// derivation tree that prunes every long subtree without productive
// events (E⁺), descends into the rest, pulling the alive vector back over
// each right sibling it passes, and reads each block it reaches as text.
// Every right sibling still pending on the walk's path is a frame, and so
// is the rest of a block after a fired event, so an event continues from
// the boundary after it through those frames and then finish — the walk
// never re-descends from the root, and it visits nodes in the order a
// root re-descent would. It owns free lists of alive-vector and
// block-row scratch buffers so the walk allocates only on its deepest
// path. In count-only mode (countOnly) the event list stays empty and
// the walk carries only the accumulated mask — no tuples are built.
type cenum struct {
	ix      *Index
	root    *slp.Node
	emit    func(spans.Tuple) bool
	aborted bool
	free    [][]uint64
	rows    [][]uint64
	frames  []frame

	countOnly bool
	need      automata.Mask
	count     int
	poll      func() bool

	// expanded counts the long nodes the walk descended into, one
	// alive-vector pullback each, and scanned the block bytes it read —
	// the two units of the delay bound.
	expanded, scanned int
}

// frame is a part of the document the walk has yet to read, starting at
// absolute offset off: a long node with data nd, or (nd nil) a block's
// text or the rest of one. The states alive at its end are those whose
// runs over tail (a block's text, or empty) end in av; a block frame's
// alive, if non-nil, holds the alive rows of its boundaries. next
// indexes the frame that follows it in cenum.frames (−1: the end of the
// document).
type frame struct {
	nd         *nodeData
	text, tail []byte
	alive, av  []uint64
	off        int64
	next       int
}

// counted records one tuple in count-only mode, honoring the poll hook.
func (e *cenum) counted(acc automata.Mask) {
	if acc&e.need != e.need {
		return
	}
	e.count++
	if e.poll != nil && !e.poll() {
		e.aborted = true
	}
}

func (e *cenum) getVec() []uint64 {
	if k := len(e.free); k > 0 {
		v := e.free[k-1]
		e.free = e.free[:k-1]
		return v
	}
	return make([]uint64, e.ix.words)
}

func (e *cenum) putVec(v []uint64) { e.free = append(e.free, v) }

// getRows returns a buffer for the alive rows of a block's boundaries.
func (e *cenum) getRows() []uint64 {
	if k := len(e.rows); k > 0 {
		v := e.rows[k-1]
		e.rows = e.rows[:k-1]
		return v
	}
	return make([]uint64, (2*blockLen+1)*e.ix.words)
}

func (e *cenum) putRows(v []uint64) { e.rows = append(e.rows, v) }

// run enumerates all accepting runs from the start state: the whole
// document is the one pending frame.
func (e *cenum) run(events []event) {
	next := -1
	if root := e.root; root != nil {
		fr := frame{av: e.ix.finalAlive, next: -1}
		if long(root) {
			fr.nd = e.ix.node(root)
		} else {
			fr.text = appendText(nil, root)
		}
		e.frames = append(e.frames, fr)
		next = 0
	}
	e.resume(e.ix.c.Start, next, events, 0)
}

// resume enumerates all accepting runs that are in state q, with no mask
// fired yet, at the start of frame f: it walks f and the frames linked
// after it, then finishes at the end of the document.
func (e *cenum) resume(q, f int, events []event, acc automata.Mask) {
	for f >= 0 {
		fr := e.frames[f]
		var exit int32
		if fr.nd != nil {
			exit = e.walk(fr.nd, q, fr.av, fr.off, fr.next, events, acc)
		} else {
			exit = e.scan(fr.text, fr.tail, fr.alive, fr.av, q, fr.off, fr.next, events, acc)
		}
		if e.aborted || exit < 0 {
			return
		}
		q, f = int(exit), fr.next
	}
	e.finish(q, events, acc)
}

// finish handles the end-of-document boundary: emit the pure run and the
// runs taking one final mask.
func (e *cenum) finish(q int, events []event, acc automata.Mask) {
	c := e.ix.c
	if c.Final[q] {
		if e.accept(events, acc); e.aborted {
			return
		}
	}
	for _, me := range c.MaskEdges[q] {
		if c.Final[me.To] {
			if e.countOnly {
				e.accept(nil, acc|me.Mask)
			} else {
				e.accept(append(events, event{e.root.Len(), me.Mask}), acc)
			}
			if e.aborted {
				return
			}
		}
	}
}

// accept emits (or counts) the tuple of one accepting run.
func (e *cenum) accept(events []event, acc automata.Mask) {
	if e.countOnly {
		e.counted(acc)
	} else if !e.emit(e.tuple(events)) {
		e.aborted = true
	}
}

// walk reads the long node with data nd at absolute offset off, from its
// start in state q; av is the alive vector at its end and next the frame
// after it. It fires every productive event inside the node, continuing
// each one through resume, and returns the pure-letter exit state (−1 if
// the pure run dies).
func (e *cenum) walk(nd *nodeData, q int, av []uint64, off int64, next int, events []event, acc automata.Mask) int32 {
	if e.aborted {
		return -1
	}
	// Prune whole subtrees without productive events.
	if !rowMeets(&nd.e.ep, q, av) {
		return nd.e.pure[q]
	}
	e.expanded++
	// Make the right part a frame for the events of the left one, and
	// walk the left one against the alive vector before the right part:
	// avL = E_R·av for a long right part, and av behind the right part's
	// text for a block.
	rOff := off + nd.ln
	exit := int32(-1)
	if r := nd.r; r != nil {
		avL := r.e.em.ApplyRightInto(e.getVec(), av)
		e.frames = append(e.frames, frame{nd: r, av: av, off: rOff, next: next})
		top := len(e.frames) - 1
		ls := e.left(nd, q, nil, avL, off, top, events, acc)
		e.frames = e.frames[:top]
		e.putVec(avL)
		if !e.aborted && ls >= 0 {
			exit = e.walk(r, int(ls), av, rOff, next, events, acc)
		}
		return exit
	}
	if nd.l == nil {
		// Two blocks: one text.
		return e.scan(bytesOf(nd.text), nil, nil, av, q, off, next, events, acc)
	}
	rt := nd.rightText()
	e.frames = append(e.frames, frame{text: rt, av: av, off: rOff, next: next})
	top := len(e.frames) - 1
	ls := e.left(nd, q, rt, av, off, top, events, acc)
	e.frames = e.frames[:top]
	if !e.aborted && ls >= 0 {
		exit = e.scan(rt, nil, nil, av, int(ls), rOff, next, events, acc)
	}
	return exit
}

// left reads nd's left part from state q; the states alive at its end
// are those whose runs over tail end in av. A long left part before a
// block first tests its E⁺ row forward over the block's text, so a
// pruned subtree costs no pullback.
func (e *cenum) left(nd *nodeData, q int, tail []byte, av []uint64, off int64, next int, events []event, acc automata.Mask) int32 {
	l := nd.l
	if l == nil {
		return e.scan(nd.leftText(), tail, nil, av, q, off, next, events, acc)
	}
	if len(tail) == 0 {
		return e.walk(l, q, av, off, next, events, acc)
	}
	v := e.getVec()
	copy(v, l.e.ep.Row(q))
	if !e.meets(v, tail, nil, av) {
		e.putVec(v)
		return l.e.pure[q]
	}
	copy(v, av)
	e.pull(v, tail)
	ls := e.walk(l, q, v, off, next, events, acc)
	e.putVec(v)
	return ls
}

// rowMeets reports whether row q of m intersects vector v.
func rowMeets(m *automata.BoolMatrix, q int, v []uint64) bool { return meet(m.Row(q), v) }

// meet reports whether two vectors intersect.
func meet(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}
func vecGet(v []uint64, q int) bool { return automata.BitGet(v, q) }

// tuple converts events into a span tuple (1-based positions).
func (e *cenum) tuple(events []event) spans.Tuple {
	t := make(spans.Tuple, len(e.ix.c.DEVA.Index.Vars()))
	for _, ev := range events {
		pos := int(ev.boundary) + 1
		for _, mk := range e.ix.c.Markers(ev.mask) {
			if mk.Close {
				s := t[mk.Var]
				s.End = pos
				t[mk.Var] = s
			} else {
				t[mk.Var] = spans.S(pos, pos)
			}
		}
	}
	return t
}
