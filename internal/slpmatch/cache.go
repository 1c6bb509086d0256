package slpmatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

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
// and reads the text of the shorter ones (see Index).
// Every traversal below stops at a node its table never holds, so a
// block is never "uncached" and nothing below it is visited.
//
// The node→value tables are sharded maps under RWMutexes. Lookups of a
// missing node release the lock, compute, and store; concurrent
// computation of the same node is possible but harmless — the computed
// values are equal, and last-write-wins keeps the table consistent.

const cacheShards = 64

// shardHint presizes each shard's map, so warming a fresh or flushed
// table skips each shard's first regrowths — with an Index's few long
// nodes, those would be a tenth of an allocation per node.
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

func newNodeCache[V any](block int64) *nodeCache[V] {
	c := &nodeCache[V]{block: block}
	for i := range c.shards {
		c.shards[i].m = make(map[*slp.Node]V, shardHint)
	}
	return c
}

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
	s.m[n] = v
	s.mu.Unlock()
}

// flush empties the table in place. Safe while lookups and stores are
// in flight: every computation holds the values it already fetched and
// derives a missing node from its children on demand, so a flush costs
// recomputation, never correctness.
func (c *nodeCache[V]) flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[*slp.Node]V, shardHint)
		s.mu.Unlock()
	}
}

// retain deletes every entry whose node no root of live reaches and
// returns how many it deleted. It sweeps only when the budget above
// allows; otherwise it costs a size count and returns 0. Like flush it
// is safe while lookups and stores are in flight: a live node it drops
// is recomputed on demand, and a store racing the sweep may survive it
// until the next one.
func (c *nodeCache[V]) retain(live []*slp.Node) int {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	n := c.len()
	if n < RetainFloor || float64(n) < retainGrowth*float64(c.kept) {
		return 0
	}
	reach := reachable(live, c.block, n)
	kept, forgotten := 0, 0
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
	return forgotten
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
// is correct — merely not incremental — on a cold table). compute must
// derive n's data from its children's and store it; the levels run in
// order, so a node's children are stored before it, and compute derives
// any a concurrent Flush dropped on demand.
//
// The spine is processed sequentially: it is O(ord) nodes, far below the
// level-parallel threshold that pays off in warmParallel.
func (c *nodeCache[V]) warmDelta(oldRoot, newRoot *slp.Node, ensure, compute func(*slp.Node)) WarmStats {
	st := WarmStats{CachedBefore: c.len()}
	if newRoot == nil {
		return st
	}
	if oldRoot != nil {
		ensure(oldRoot)
	}
	levels, reused := c.uncached(newRoot)
	for _, level := range levels {
		for _, n := range level {
			compute(n)
		}
		st.Recomputed += len(level)
	}
	st.Reused = reused
	warmRecomputedTotal.Add(uint64(st.Recomputed))
	warmReusedTotal.Add(uint64(st.Reused))
	return st
}

// uncached gathers the distinct tabled nodes of root's DAG that have no
// data yet, grouped by Order, and counts the distinct cached nodes it
// pruned at. Order(n) = 1 + max(order of children), so all nodes of one
// order are pairwise independent: level-by-level processing gives a
// race-free parallel bottom-up schedule.
func (c *nodeCache[V]) uncached(root *slp.Node) (levels [][]*slp.Node, reused int) {
	seen := map[*slp.Node]bool{}
	var visit func(n *slp.Node)
	visit = func(n *slp.Node) {
		if !c.tabled(n) || seen[n] {
			return
		}
		seen[n] = true
		if c.has(n) {
			reused++
			return
		}
		visit(n.Left())
		visit(n.Right())
		o := int(n.Order())
		for len(levels) <= o {
			levels = append(levels, nil)
		}
		levels[o] = append(levels[o], n)
	}
	visit(root)
	return levels, reused
}

// warmParallel computes per-node data for all uncached tabled nodes of
// root bottom-up, fanning each order-level out over workers. Each worker
// calls worker once for its compute function, which must derive n's data
// from its children's (already cached) data and store it.
func (c *nodeCache[V]) warmParallel(root *slp.Node, workers int, worker func() func(*slp.Node)) {
	levels, _ := c.uncached(root)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var seq func(*slp.Node)
	for _, level := range levels {
		if len(level) == 0 {
			continue
		}
		if workers == 1 || len(level) == 1 {
			if seq == nil {
				seq = worker()
			}
			for _, n := range level {
				seq(n)
			}
			continue
		}
		var wg sync.WaitGroup
		ch := make(chan *slp.Node, len(level))
		for _, n := range level {
			ch <- n
		}
		close(ch)
		w := workers
		if w > len(level) {
			w = len(level)
		}
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				compute := worker()
				for n := range ch {
					compute(n)
				}
			}()
		}
		wg.Wait()
	}
}
