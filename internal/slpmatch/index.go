package slpmatch

import (
	"unsafe"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// nodeData is the per-SLP-node payload of an index: the deterministic
// pure-letter step function P, the mask-anywhere reachability matrix E
// (at every boundary before a letter, at most one mask may fire), and
// the at-least-one-mask matrix E⁺ used to prune subtrees without result
// events. All three live in one slab — E's rows, then E⁺'s, then P as
// int32s — that em, ep and pure view; the alive-vector pullback reads E
// directly (ApplyRightInto), so no transpose is stored. An inner node's
// data links to its children's and carries its text length n, so the
// enumeration walk reads no table and no SLP node.
type nodeData struct {
	em, ep automata.BoolMatrix
	pure   []int32
	l, r   *nodeData
	n      int64
}

// newNodeData allocates the data of a node of text length n over nq
// states: one zeroed slab, with em, ep and pure viewing it.
func newNodeData(nq int, n int64) *nodeData {
	mw := nq * ((nq + 63) / 64)
	slab := make([]uint64, 2*mw+(nq+1)/2)
	nd := &nodeData{
		em: automata.MatrixView(nq, slab[:mw]),
		ep: automata.MatrixView(nq, slab[mw:2*mw]),
		n:  n,
	}
	if nq > 0 {
		nd.pure = unsafe.Slice((*int32)(unsafe.Pointer(&slab[2*mw])), nq)
	}
	return nd
}

// Index enumerates a deterministic extended vset-automaton's spanner
// over SLP-compressed documents. It owns the compiled automaton, dense
// leaf data for every byte, the final-alive vector, and the concurrent
// node table; an Index is safe for concurrent use, and everything that
// holds the same Index shares its tables.
type Index struct {
	c          *automata.CompiledDEVA
	nq         int
	words      int
	nodes      *nodeCache[*nodeData]
	leaf       [256]*nodeData
	finalAlive []uint64
}

// NewIndex prepares an index, with tables of its own, for the given
// deterministic eVA.
func NewIndex(d *automata.DEVA) *Index {
	c := d.Compiled()
	nq := c.NQ
	ix := &Index{c: c, nq: nq, words: (nq + 63) / 64, nodes: newNodeCache[*nodeData]()}

	// Dense leaf table: real data for the automaton's letters, one shared
	// dead entry (pure all −1, zero matrices) for every other byte — a
	// letter the automaton never reads kills every run.
	dead := newNodeData(nq, 1)
	for q := range dead.pure {
		dead.pure[q] = -1
	}
	for b := range ix.leaf {
		ix.leaf[b] = dead
	}
	for _, b := range c.Letters {
		steps := c.StepsFor(b)
		nd := newNodeData(nq, 1)
		copy(nd.pure, steps)
		for q := 0; q < nq; q++ {
			if s := steps[q]; s >= 0 {
				nd.em.Set(q, int(s))
			}
			for _, me := range c.MaskEdges[q] {
				if s2 := steps[me.To]; s2 >= 0 {
					nd.em.Set(q, int(s2))
					nd.ep.Set(q, int(s2))
				}
			}
		}
		ix.leaf[b] = nd
	}

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

// node computes (memoized) the P/E/E⁺ data of an SLP node. Concurrent
// computation of the same node yields equal data; last-write-wins is
// harmless.
func (ix *Index) node(n *slp.Node) *nodeData {
	if n.IsLeaf() {
		return ix.leaf[n.LeafByte()]
	}
	if nd, ok := ix.nodes.get(n); ok {
		return nd
	}
	nd := ix.combine(ix.node(n.Left()), ix.node(n.Right()))
	ix.nodes.put(n, nd)
	return nd
}

// combine derives a concatenation node's data from its children's,
// writing straight into the node's slab.
func (ix *Index) combine(l, r *nodeData) *nodeData {
	nq := ix.nq
	nd := newNodeData(nq, l.n+r.n)
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
	nd.l, nd.r = l, r
	return nd
}

// DEVA returns the underlying deterministic automaton.
func (ix *Index) DEVA() *automata.DEVA { return ix.c.DEVA }

// Flush empties the node table in place, releasing the per-node data of
// every document seen so far. Safe while other goroutines warm,
// enumerate or count on the same Index: they recompute what they miss,
// and everything that holds this Index keeps sharing the one table.
func (ix *Index) Flush() { ix.nodes.flush() }

// Retain forgets the per-node data of every node that no root of live
// reaches — the versions the database has superseded or deleted — and
// returns how many nodes it forgot. live must list every document the
// Index is still meant to serve warm; a live node it misses is merely
// recomputed on its next use. The sweep walks the live DAG, so it runs
// only once the table has grown past its budget since the last sweep
// (see the package's table lifetime rule); other calls return 0 at the
// cost of a size count. Safe while other goroutines warm, enumerate or
// count on the same Index, like Flush: a walk in flight follows the
// data links it already holds and looks nothing up.
func (ix *Index) Retain(live []*slp.Node) int { return ix.nodes.retain(live) }

// Warm precomputes the index for all nodes of a document — the
// preprocessing phase, linear in the SLP size (data complexity).
func (ix *Index) Warm(root *slp.Node) {
	if root != nil {
		ix.node(root)
	}
}

// WarmParallel is Warm with the uncached nodes of each SLP DAG level
// fanned out over workers goroutines (GOMAXPROCS if workers ≤ 0); nodes
// of equal order are independent, so the schedule is race-free.
func (ix *Index) WarmParallel(root *slp.Node, workers int) {
	warmParallel(root, workers,
		func(n *slp.Node) bool { _, ok := ix.nodes.get(n); return ok },
		func(n *slp.Node) {
			ix.nodes.put(n, ix.combine(ix.node(n.Left()), ix.node(n.Right())))
		})
}

// CachedNodes reports the number of inner SLP nodes with computed data
// in this Index's table.
func (ix *Index) CachedNodes() int { return ix.nodes.len() }

// WarmDelta brings the index up to date after an edit that turned
// oldRoot into newRoot: the traversal prunes at every node whose data is
// already cached, so it computes P/E/E⁺ data only for the O(log d)
// fresh spine nodes of the edit (Section 4.3 — the hash-consed subtrees
// shared with oldRoot are free). A nil oldRoot warms newRoot from
// whatever is cached. Safe for concurrent use, like Warm.
func (ix *Index) WarmDelta(oldRoot, newRoot *slp.Node) WarmStats {
	before := ix.nodes.len()
	st := warmDelta(oldRoot, newRoot,
		func(n *slp.Node) bool { _, ok := ix.nodes.get(n); return ok },
		func(n *slp.Node) { ix.node(n) },
		func(n *slp.Node) { ix.node(n) })
	st.CachedBefore = before
	return st
}

// NonEmpty decides whether the spanner result on 𝔇(root) is non-empty,
// in compressed time (no decompression).
func (ix *Index) NonEmpty(root *slp.Node) bool {
	if root == nil {
		return vecGet(ix.finalAlive, ix.c.Start)
	}
	v := ix.node(root).em.ApplyRight(ix.finalAlive)
	return vecGet(v, ix.c.Start)
}

// event mirrors the uncompressed enumerator's event type.
type event struct {
	boundary int64
	mask     automata.Mask
}

// Each enumerates the spanner's result tuples on 𝔇(root) without
// decompressing the document: after Warm (linear in |S|), the delay
// between consecutive tuples is O(ord(root) · poly(automaton)) — i.e.
// O(log |D|) on balanced SLPs, matching the survey's Section 4 bound.
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
// derivation tree that prunes every subtree without productive events
// (E⁺) and descends into the rest, pulling the alive vector back over
// each right sibling it passes. Every right sibling still pending on the
// walk's path is a frame, so an event fired at a leaf continues from the
// boundary after it through those frames and then finish — the walk
// never re-descends from the root, and it visits nodes in the order a
// root re-descent would. It owns a free list of alive-vector scratch
// buffers so the walk allocates only on its deepest path. In count-only
// mode (countOnly) the event list stays empty and the walk carries only
// the accumulated mask — no tuples are built.
type cenum struct {
	ix      *Index
	root    *slp.Node
	emit    func(spans.Tuple) bool
	aborted bool
	free    [][]uint64
	frames  []frame

	countOnly bool
	need      automata.Mask
	count     int
	poll      func() bool

	// expanded counts the inner nodes the walk descended into, one
	// alive-vector pullback each — the unit of the delay bound.
	expanded int
}

// frame is a subtree the walk has yet to read: the node with data nd
// starts at absolute offset off, av is the alive vector at its end, and
// next indexes the frame that follows it in cenum.frames (−1: the end of
// the document).
type frame struct {
	nd   *nodeData
	av   []uint64
	off  int64
	next int
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

// run enumerates all accepting runs from the start state: the whole
// document is the one pending frame.
func (e *cenum) run(events []event) {
	next := -1
	if e.root != nil {
		e.frames = append(e.frames, frame{nd: e.ix.node(e.root), av: e.ix.finalAlive, next: -1})
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
		exit := e.walk(fr.nd, q, fr.av, fr.off, fr.next, events, acc)
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
		if e.countOnly {
			e.counted(acc)
			if e.aborted {
				return
			}
		} else if !e.emit(e.tuple(events)) {
			e.aborted = true
			return
		}
	}
	for _, me := range c.MaskEdges[q] {
		if c.Final[me.To] {
			if e.countOnly {
				e.counted(acc | me.Mask)
				if e.aborted {
					return
				}
				continue
			}
			ev := append(events, event{e.root.Len(), me.Mask})
			if !e.emit(e.tuple(ev)) {
				e.aborted = true
				return
			}
		}
	}
}

// walk reads the node with data nd at absolute offset off, from its
// start in state q; av is the alive vector at its end and next the frame
// after it. It fires every productive event inside the node, continuing
// each one through resume, and returns the pure-letter exit state (−1 if
// the pure run dies).
func (e *cenum) walk(nd *nodeData, q int, av []uint64, off int64, next int, events []event, acc automata.Mask) int32 {
	if e.aborted {
		return -1
	}
	if nd.l == nil {
		steps := nd.pure
		for _, me := range e.ix.c.MaskEdges[q] {
			s := steps[me.To]
			if s < 0 || !vecGet(av, int(s)) {
				continue
			}
			if e.countOnly {
				e.resume(int(s), next, nil, acc|me.Mask)
			} else {
				e.resume(int(s), next, append(events, event{off, me.Mask}), acc)
			}
			if e.aborted {
				return -1
			}
		}
		return steps[q]
	}
	// Prune whole subtrees without productive events.
	if !rowMeets(&nd.ep, q, av) {
		return nd.pure[q]
	}
	e.expanded++
	// Pull the alive vector back over the right part, avL = E_R·av, and
	// make the right part a frame for the events of the left one.
	rOff := off + nd.l.n
	avL := nd.r.em.ApplyRightInto(e.getVec(), av)
	e.frames = append(e.frames, frame{nd: nd.r, av: av, off: rOff, next: next})
	top := len(e.frames) - 1
	ls := e.walk(nd.l, q, avL, off, top, events, acc)
	e.frames = e.frames[:top]
	e.putVec(avL)
	if e.aborted || ls < 0 {
		return -1
	}
	return e.walk(nd.r, int(ls), av, rOff, next, events, acc)
}

// rowMeets reports whether row q of m intersects vector v.
func rowMeets(m *automata.BoolMatrix, q int, v []uint64) bool {
	row := m.Row(q)
	for k := range row {
		if row[k]&v[k] != 0 {
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
