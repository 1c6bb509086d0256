package slpmatch

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
)

// Concurrency-safe per-node tables. Per-SLP-node data (Boolean
// reachability matrices, pure-step vectors, count matrices) depends only
// on the (automaton, node) pair and SLP nodes are immutable, so each
// Index and Counter memoizes it in a table of its own: whoever holds
// the instance shares the table, a database of d documents pays for each
// shared SLP node once — also across goroutines — and the table is
// collectable with the instance.
//
// Lifetime of an entry. A table is keyed by node pointers, so an entry
// pins its node, and with it the document version the node came from,
// for as long as the table lives. An entry lives until a Flush empties
// the table or a Retain sweep finds its node unreachable from the live
// documents' roots. The owner of the document database calls Retain
// after every mutation that supersedes or deletes a version; a sweep
// walks the live DAG, so it runs only once the table has grown to
// retainGrowth times what the previous sweep kept, and the garbage it
// removes pays for the walk. Between sweeps a table therefore holds at
// most retainGrowth times the live nodes it had data for at the last
// sweep (or RetainFloor entries), plus what was warmed since. Dropping
// an entry whose node is still live costs a recomputation and nothing
// else, exactly as after a Flush.
//
// Which nodes a table holds. A Counter's table holds every inner node it
// has seen; an Index's holds only the inner nodes longer than blockLen,
// and reads the text of the shorter ones (see Index). An Index's entries
// point into its element table (below), whose lifetime follows theirs.
// Every traversal below stops at a node its table never holds, so a
// block is never "uncached" and nothing below it is visited.
//
// The node→value tables are sharded maps under RWMutexes, each shard's
// map allocated at its first store, so a table costs no maps until it
// is warmed. Lookups of a missing node release the lock, compute, and
// store; concurrent computation of the same node is possible but
// harmless — the computed values are equal, and last-write-wins keeps
// the table consistent.

const cacheShards = 64

// shardHint presizes each shard's map, allocated at the shard's first
// store, so warming a fresh or flushed table skips each shard's first
// regrowths — with an Index's few long nodes, those would be a tenth of
// an allocation per node.
const shardHint = 32

// cacheTraffic counts table hits and misses for the whole process, per
// shard on its own cache line, so the hot lookup path never contends on
// one global counter word across cores. The sums only grow — a Flush
// does not rewind them — so servers can export them as Prometheus
// counters.
var cacheTraffic [cacheShards]struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte // pad: one cache line per shard's counters
}

// CacheStats returns the cumulative per-SLP-node table hit and miss
// counts of every Index and Counter of the process. Safe to
// call concurrently with matching, warming, and Flush.
func CacheStats() (hits, misses uint64) {
	for i := range cacheTraffic {
		hits += cacheTraffic[i].hits.Load()
		misses += cacheTraffic[i].misses.Load()
	}
	return hits, misses
}

// Sweep budget: retain sweeps only once a table holds at least
// retainGrowth times the entries the previous sweep kept, and at least
// RetainFloor entries, so tables of small databases are never swept.
const (
	retainGrowth = 1.25
	// RetainFloor is the table size, in inner nodes, below which Retain
	// never sweeps.
	RetainFloor = 1024
)

// forgottenTotal counts the entries every sweep of the process deleted.
var forgottenTotal atomic.Uint64

// ForgottenNodes returns the cumulative number of per-node entries that
// Retain sweeps have deleted, over every Index and Counter of the
// process. It only grows, so servers can export it as a counter.
func ForgottenNodes() uint64 { return forgottenTotal.Load() }

// nodeCache is a sharded concurrent map from SLP nodes to per-node data.
// It holds only inner nodes longer than block bytes.
type nodeCache[V any] struct {
	block  int64
	shards [cacheShards]struct {
		mu sync.RWMutex
		m  map[*slp.Node]V
	}
	// sweepMu serializes sweeps; kept is the size the last one left.
	sweepMu sync.Mutex
	kept    int
}

// newNodeCache returns an empty table. A shard's map is allocated at
// its first put, so a table that is never warmed costs no maps.
func newNodeCache[V any](block int64) *nodeCache[V] { return &nodeCache[V]{block: block} }

// shardOf hashes the node pointer. Heap pointers share alignment in the
// low bits and arena locality in the high bits; xoring a shifted copy
// spreads both across the shard index.
func shardOf(n *slp.Node) int {
	p := uintptr(unsafe.Pointer(n))
	return int((p>>4)^(p>>13)) & (cacheShards - 1)
}

// tabled reports whether a table with block length block holds n once
// it is computed: an inner node longer than block.
func tabled(n *slp.Node, block int64) bool {
	return n != nil && !n.IsLeaf() && n.Len() > block
}

func (c *nodeCache[V]) tabled(n *slp.Node) bool { return tabled(n, c.block) }

// has reports whether n's data is in the table.
func (c *nodeCache[V]) has(n *slp.Node) bool {
	_, ok := c.get(n)
	return ok
}

func (c *nodeCache[V]) get(n *slp.Node) (V, bool) {
	i := shardOf(n)
	s := &c.shards[i]
	s.mu.RLock()
	v, ok := s.m[n]
	s.mu.RUnlock()
	if ok {
		cacheTraffic[i].hits.Add(1)
	} else {
		cacheTraffic[i].misses.Add(1)
	}
	return v, ok
}

func (c *nodeCache[V]) put(n *slp.Node, v V) {
	s := &c.shards[shardOf(n)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*slp.Node]V, shardHint)
	}
	s.m[n] = v
	s.mu.Unlock()
}

// flush empties the table in place, leaving each shard without a map
// until its next store. Safe while lookups and stores are
// in flight: every computation holds the values it already fetched and
// derives a missing node from its children on demand, so a flush costs
// recomputation, never correctness.
func (c *nodeCache[V]) flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}

// retain deletes every entry whose node no root of live reaches and
// returns how many it deleted, and whether it swept. It sweeps only
// when the budget above allows; otherwise it costs a size count and
// returns (0, false). Like flush it is safe while lookups and stores are
// in flight: a live node it drops is recomputed on demand, and a store
// racing the sweep may survive it until the next one.
func (c *nodeCache[V]) retain(live []*slp.Node) (forgotten int, swept bool) {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	n := c.len()
	if n < RetainFloor || float64(n) < retainGrowth*float64(c.kept) {
		return 0, false
	}
	reach := reachable(live, c.block, n)
	kept := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// A fresh map, so the buckets of the forgotten entries go too.
		m := make(map[*slp.Node]V)
		for k, v := range s.m {
			if _, ok := reach[k]; ok {
				m[k] = v
			}
		}
		forgotten += len(s.m) - len(m)
		kept += len(m)
		s.m = m
		s.mu.Unlock()
	}
	c.kept = kept
	forgottenTotal.Add(uint64(forgotten))
	return forgotten, true
}

// each calls f on every value in the table, one shard at a time under
// its read lock.
func (c *nodeCache[V]) each(f func(V)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, v := range s.m {
			f(v)
		}
		s.mu.RUnlock()
	}
}

// reachable returns the set of nodes a table with block length block
// holds in the DAGs rooted at roots, descending no further; hint is the
// expected size.
func reachable(roots []*slp.Node, block int64, hint int) map[*slp.Node]struct{} {
	seen := make(map[*slp.Node]struct{}, hint)
	stack := append([]*slp.Node(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !tabled(n, block) {
			continue
		}
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		stack = append(stack, n.Left(), n.Right())
	}
	return seen
}

func (c *nodeCache[V]) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		total += len(s.m)
		s.mu.RUnlock()
	}
	return total
}

// WarmStats reports what one WarmDelta call did: how many inner SLP
// nodes had their per-node data computed now (the edit spine — O(log d)
// per CDE operation on balanced SLPs), how many distinct already-warm
// subtree roots the pruned traversal stopped at (each standing for a
// whole reused subtree), and how many inner nodes the instance had cached
// before the call (the data kept valid across the edit).
type WarmStats struct {
	// Recomputed counts inner nodes whose data was computed by this call.
	Recomputed int
	// Reused counts the distinct cached nodes the traversal pruned at:
	// the roots of the subtrees shared with previous versions. The DAG
	// below them was never visited — that is the incrementality.
	Reused int
	// CachedBefore is the number of inner nodes the instance had data for
	// when the call started (across all documents it has seen).
	CachedBefore int
}

// Add accumulates other into st (for summing index + counter stats).
func (st *WarmStats) Add(other WarmStats) {
	st.Recomputed += other.Recomputed
	st.Reused += other.Reused
	st.CachedBefore += other.CachedBefore
}

// Process-wide WarmDelta totals (monotonic, a Flush does not rewind
// them) so servers can export edit-maintenance work as Prometheus
// counters.
var (
	warmRecomputedTotal atomic.Uint64
	warmReusedTotal     atomic.Uint64
)

// WarmDeltaStats returns the cumulative nodes-recomputed and
// nodes-reused counts over every WarmDelta call in the process, across
// all instances.
func WarmDeltaStats() (recomputed, reused uint64) {
	return warmRecomputedTotal.Load(), warmReusedTotal.Load()
}

// warmDelta computes per-node data for the tabled nodes of newRoot that
// are not yet cached, pruning the traversal at cached nodes: after a CDE
// edit of a warmed document only the O(log d) fresh spine nodes are
// uncached, so the walk touches the spine plus its cached boundary and
// nothing below it. ensure warms a baseline root first (a single cache
// hit when oldRoot is already warm; a full warm otherwise, so WarmDelta
// is correct — merely not incremental — on a cold table). The visit is
// post-order, so compute, which must derive n's data from its children's
// and store it, finds the children stored; it derives any a concurrent
// Flush dropped on demand.
func (c *nodeCache[V]) warmDelta(oldRoot, newRoot *slp.Node, ensure, compute func(*slp.Node)) WarmStats {
	st := WarmStats{CachedBefore: c.len()}
	if newRoot == nil {
		return st
	}
	if oldRoot != nil {
		ensure(oldRoot)
	}
	seen := map[*slp.Node]bool{}
	var visit func(n *slp.Node)
	visit = func(n *slp.Node) {
		if !c.tabled(n) || seen[n] {
			return
		}
		seen[n] = true
		if c.has(n) {
			st.Reused++
			return
		}
		visit(n.Left())
		visit(n.Right())
		compute(n)
		st.Recomputed++
	}
	visit(newRoot)
	warmRecomputedTotal.Add(uint64(st.Recomputed))
	warmReusedTotal.Add(uint64(st.Reused))
	return st
}

// Elements. An Index's per-node value (P, E, E⁺) depends on a node's
// text only through the automaton's transition monoid, and a query
// reaches few of the monoid's values however large its documents are.
// So an Index interns each value once, as an element, in a table of its
// own, and a tabled node points at its element (see nodeData). The table
// has two memos:
//
//   - the product memo maps a (left, right) pair of elements to the
//     element of their concatenation, so building a node whose
//     children's values were combined before is a lookup;
//   - an element's step row maps a letter class to the element one letter
//     longer, so a block child's element is its bytes folded from the
//     empty word's element, one lookup per byte (builder.fold).
//
// An element is immutable once interned, and it is published only under
// the table's lock or through an atomic step slot, so no reader sees it
// half written. Nodes and memos hold element pointers; a map keyed by
// the element's words interns them.
//
// Lifetime of an element. The empty word's element and the letters'
// live as long as the table. Any other element survives a Retain sweep
// only if a retained node references it, and the memos keep only entries
// between survivors, so a server whose documents churn keeps the values
// of its live documents, not every value it ever saw. Flush replaces the
// table by a fresh one. Between two sweeps the folds fill at most
// maxFoldSteps step slots, and so intern at most that many block
// prefixes; past that, a block child's value is derived from its bytes
// in scratch (blockData), as it would be without the table, so values
// that never repeat cost no memory beyond their nodes' own elements.

// maxFoldSteps is the number of step slots — and the most block-prefix
// elements — the folds fill in one element table between two sweeps.
const maxFoldSteps = 1024

// foldFallbacks counts the block folds of the process that found their
// table's step budget spent.
var foldFallbacks atomic.Uint64

// FoldFallbacks returns the cumulative number of block folds, over every
// Index of the process, that found their element table's step budget
// spent and finished in scratch. It only grows, so servers can export it
// as a counter.
func FoldFallbacks() uint64 { return foldFallbacks.Load() }

// elem is one interned value: E's rows, then E⁺'s, then P as int32s, in
// one slab that em, ep and pure view. next is its step row, allocated at
// the first fill.
type elem struct {
	em, ep automata.BoolMatrix
	pure   []int32
	slab   []uint64
	next   atomic.Pointer[stepRow]
}

// stepRow maps a letter class to the element one letter longer (nil:
// not filled).
type stepRow []atomic.Pointer[elem]

// newElem allocates a zeroed value over nq states.
func newElem(nq int) *elem {
	mw := nq * ((nq + 63) / 64)
	slab := make([]uint64, 2*mw+(nq+1)/2)
	e := &elem{em: automata.MatrixView(nq, slab[:mw]), ep: automata.MatrixView(nq, slab[mw:2*mw]), slab: slab}
	if nq > 0 {
		e.pure = unsafe.Slice((*int32)(unsafe.Pointer(&slab[2*mw])), nq)
	}
	return e
}

// key views the element's words as a string, the intern map's key.
func (e *elem) key() string {
	return unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(e.slab))), 8*len(e.slab))
}

// step returns the element one letter of class k longer, nil if that
// slot is not filled.
func (e *elem) step(k uint16) *elem {
	if row := e.next.Load(); row != nil {
		return (*row)[k].Load()
	}
	return nil
}

// elemTable is an Index's element table. Everything below mu is
// guarded by it.
type elemTable struct {
	nq, classes int
	empty       *elem   // the empty word's element
	fixed       []*elem // empty and the letters' elements, kept by every sweep

	full atomic.Bool // steps reached maxFoldSteps; set and cleared under mu

	mu       sync.Mutex
	byValue  map[string]*elem
	prod     map[[2]*elem]*elem
	steps    int // step slots filled since the last sweep
	prefixes int // elements a fill interned since the last sweep
	products int // combines run, one per product memo miss
}

// newElemTable returns a table holding the empty word's element, the
// identity, and each letter class's, read off the letter table, with the
// empty word's step row leading to the letters'.
func newElemTable(ix *Index) *elemTable {
	nq, lt := ix.nq, ix.lt
	t := &elemTable{nq: nq, classes: len(ix.c.Letters) + 1, byValue: map[string]*elem{}, prod: map[[2]*elem]*elem{}}
	id := newElem(nq)
	for q := 0; q < nq; q++ {
		id.em.Set(q, q)
		id.pure[q] = int32(q)
	}
	t.empty = t.intern(id)
	t.fixed = append(t.fixed, t.empty)
	row := make(stepRow, t.classes)
	n := nq * lt.w
	for k := range row {
		v := newElem(nq)
		copy(v.slab[:n], lt.em[k*n:])
		copy(v.slab[n:2*n], lt.ep[k*n:])
		for q := 0; q < nq; q++ {
			v.pure[q] = lt.step[k*nq+q] >> 1
		}
		v = t.intern(v)
		row[k].Store(v)
		t.fixed = append(t.fixed, v)
	}
	t.empty.next.Store(&row)
	return t
}

// intern returns the table's element equal to v, adding a copy of v if
// there is none. t.mu must be held (or t unpublished).
func (t *elemTable) intern(v *elem) *elem {
	if e, ok := t.byValue[v.key()]; ok {
		return e
	}
	return t.add(v)
}

// add adds a copy of v, which the table does not hold. t.mu must be
// held.
func (t *elemTable) add(v *elem) *elem {
	e := newElem(t.nq)
	copy(e.slab, v.slab)
	t.byValue[e.key()] = e
	return e
}

// setStep records that e's successor over class k is nx. t.mu must be
// held.
func (t *elemTable) setStep(e *elem, k uint16, nx *elem) {
	row := e.next.Load()
	if row == nil {
		r := make(stepRow, t.classes)
		row = &r
		e.next.Store(row)
	}
	(*row)[k].Store(nx)
	t.steps++
	t.full.Store(t.steps >= maxFoldSteps)
}

func (t *elemTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byValue)
}

// sweep keeps, in the table and its memos, only the fixed elements and
// those refs reports — it calls its argument on the element of every
// retained node — and restarts the step budget. A fold racing the sweep
// may hold a dropped element and record steps from it; those survive
// until the next sweep, like a store racing a node sweep.
func (t *elemTable) sweep(refs func(keep func(*elem))) {
	keep := make(map[*elem]bool)
	refs(func(e *elem) { keep[e] = true })
	for _, e := range t.fixed {
		keep[e] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byValue := make(map[string]*elem, len(keep))
	for k, e := range t.byValue {
		if keep[e] {
			byValue[k] = e
			if row := e.next.Load(); row != nil {
				for i := range *row {
					if nx := (*row)[i].Load(); nx != nil && !keep[nx] {
						(*row)[i].Store(nil)
					}
				}
			}
		}
	}
	prod := make(map[[2]*elem]*elem)
	for k, e := range t.prod {
		if keep[k[0]] && keep[k[1]] && keep[e] {
			prod[k] = e
		}
	}
	t.byValue, t.prod = byValue, prod
	t.steps, t.prefixes = 0, 0
	t.full.Store(false)
}
