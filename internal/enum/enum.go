// Package enum implements the enumeration problem for regular spanners
// (Section 2.5 of Schmid and Schweikardt's PODS 2022 survey): after a
// preprocessing phase LINEAR in the document length, all result tuples are
// enumerated without repetition with CONSTANT delay in data complexity.
//
// The algorithm follows Florenzano, Riveros, Ugarte, Vansummeren, and
// Vrgoč (ACM TODS 2020): the spanner is first compiled into a
// deterministic extended vset-automaton (query complexity only — this cost
// vanishes in data complexity, as the survey notes). The preprocessing
// stores only what some run prefix of THIS document reaches: a forward
// pass lists, per boundary, the states arrived at by a letter and the mask
// edges that can fire there; a backward pass over those records marks
// which of them lie on an accepting run and links each to the next
// boundary where a live marker set fires. The enumeration phase walks only
// such "event boundaries", skipping deterministic letter-only stretches in
// O(1) via the jump links. Every node of the search tree is live (leads to
// at least one output), so the delay between consecutive tuples is bounded
// by the automaton size and variable count, independent of the document.
package enum

import (
	"docspanner/internal/automata"
	"docspanner/internal/spans"
)

// arrival is one (state, boundary) configuration some run prefix reaches
// by reading a letter (or the start configuration): no mask taken at its
// boundary yet. The state itself is only needed while the next boundary
// is being filled and is not kept. Links point to later boundaries, so
// arrivals and fired edges form a DAG in index order. Indices are int32:
// a document is limited to 2^31 stored records (about 700 MB of text at
// three records a byte).
type arrival struct {
	next int32 // arrival of the letter successor at the next boundary; -1 if none
	jump int32 // first live record in fires of the nearest arrival along next links, this one included, that has one; -1 if none
}

// fired is one mask edge taken at an arrival's boundary and followed by
// the letter there. Only edges whose target reads that letter (at the last
// boundary: whose target is final) are stored — the one-byte look-ahead
// drops the rest before they cost anything.
type fired struct {
	mask automata.Mask
	from int32 // the arrival it fires at
	pos  int32 // 0-based boundary (markers precede the letter at pos)
	next int32 // arrival after the target's letter step; -1 at the last boundary
}

// Enumerator holds the preprocessed data structures for one (spanner,
// document) pair. After NewEnumerator returns, the tables are read-only:
// Each, Count, and All may run concurrently from multiple goroutines, and
// several Enumerators may share one DEVA (which Determinize returns fully
// built and is never mutated here; its dense compilation is built once
// and shared by its Enumerators).
type Enumerator struct {
	d *automata.DEVA
	c *automata.CompiledDEVA

	arr        []arrival // grouped by boundary, ascending; arr[0] is the start
	fires      []fired   // grouped by arrival, ascending, each group in MaskEdges (= mask) order
	finishable []bool    // per arrival: a pure-letter run from it accepts
}

// Release does nothing. The tables are a few dozen bytes per document
// byte and go to the garbage collector with the Enumerator; the method
// stays because the benchmark harness calls it.
func (e *Enumerator) Release() {}

// NewEnumerator runs the preprocessing phase: two passes over the
// document, time and space proportional to the configurations its run
// prefixes reach — at most |doc|·|Q|, and a handful per byte when the
// automaton keeps few states alive at a time (independent of |Q|).
// Transitions are read from the dense compiled tables, not the
// construction-time maps.
func NewEnumerator(d *automata.DEVA, doc []byte) *Enumerator {
	n := len(doc)
	c := d.Compiled()
	// Room for three runs alive side by side and a mask every fourth byte
	// — what line-oriented extraction patterns need; append regrows the
	// tables for automata that keep more alive.
	e := &Enumerator{
		d:     d,
		c:     c,
		arr:   make([]arrival, 1, 3*n+16),
		fires: make([]fired, 0, n/4+16),
	}
	e.arr[0].next = -1

	// Forward: cur holds the states of arr[lo:hi], the arrivals at
	// boundary i; whatever they reach is appended behind hi — states to
	// nxt, arrivals to arr — as boundary i+1. at[q] names q's arrival
	// there, valid only if it lies behind hi and nxt agrees.
	cur, nxt := make([]int32, 1, c.NQ), make([]int32, 0, c.NQ)
	cur[0] = int32(c.Start)
	at := make([]int32, c.NQ)
	reach := func(q int32, hi int) int32 {
		if j := int(at[q]) - hi; j >= 0 && j < len(nxt) && nxt[j] == q {
			return at[q]
		}
		at[q] = int32(len(e.arr))
		nxt = append(nxt, q)
		e.arr = append(e.arr, arrival{next: -1})
		return at[q]
	}
	lo := 0
	for i := 0; i < n && len(cur) > 0; i++ {
		steps := c.StepsFor(doc[i])
		if steps == nil {
			cur = cur[:0] // no transition reads this byte: every run prefix ends here
			break
		}
		hi := len(e.arr)
		for j, q := range cur {
			for _, me := range c.MaskEdges[q] {
				if s := steps[me.To]; s >= 0 {
					e.fires = append(e.fires, fired{mask: me.Mask, from: int32(lo + j), pos: int32(i), next: reach(s, hi)})
				}
			}
			if s := steps[q]; s >= 0 {
				nx := reach(s, hi)
				e.arr[lo+j].next = nx
			}
		}
		cur, nxt, lo = nxt, cur[:0], hi
	}
	// cur is what reached the last boundary: acceptance is the look-ahead.
	e.finishable = make([]bool, len(e.arr))
	for j, q := range cur {
		e.finishable[lo+j] = c.Final[q]
		for _, me := range c.MaskEdges[q] {
			if c.Final[me.To] {
				e.fires = append(e.fires, fired{mask: me.Mask, from: int32(lo + j), pos: int32(n), next: -1})
			}
		}
	}

	// Backward: every link points to a larger index, so one descending
	// sweep sees an arrival's successors before the arrival itself; k
	// walks fires in step.
	k := int32(len(e.fires))
	for x := int32(len(e.arr)) - 1; x >= 0; x-- {
		a := &e.arr[x]
		a.jump = -1
		if a.next >= 0 {
			e.finishable[x] = e.finishable[a.next]
			a.jump = e.arr[a.next].jump
		}
		for ; k > 0 && e.fires[k-1].from == x; k-- {
			if e.live(e.fires[k-1]) {
				a.jump = k - 1
			}
		}
	}
	return e
}

// live reports whether an accepting run continues after f: at the last
// boundary the look-ahead already checked acceptance; elsewhere the
// arrival behind the letter must finish by letters alone or reach another
// live mask.
func (e *Enumerator) live(f fired) bool {
	return f.next < 0 || e.finishable[f.next] || e.arr[f.next].jump >= 0
}

// event is one marker-set firing.
type event struct {
	boundary int // 0-based boundary index (markers precede letter boundary)
	mask     automata.Mask
}

// Each enumerates all tuples of the spanner on the document, calling f for
// each; enumeration stops early if f returns false. Tuples are distinct
// (the deterministic automaton assigns one run per tuple).
func (e *Enumerator) Each(f func(t spans.Tuple) bool) {
	events := make([]event, 0, 2*len(e.d.Index.Vars())+1)
	e.dfs(0, events, f)
}

// dfs enumerates all accepting runs from arrival x (no mask taken at its
// boundary yet), with events collected so far. Returns false if the
// callback aborted.
func (e *Enumerator) dfs(x int32, events []event, f func(spans.Tuple) bool) bool {
	if e.finishable[x] {
		if !f(e.tuple(events)) {
			return false
		}
	}
	for k := e.arr[x].jump; k >= 0; k = e.arr[x].jump {
		for x = e.fires[k].from; int(k) < len(e.fires) && e.fires[k].from == x; k++ {
			fd := e.fires[k]
			if !e.live(fd) {
				continue
			}
			ev := append(events, event{int(fd.pos), fd.mask})
			if fd.next < 0 {
				if !f(e.tuple(ev)) {
					return false
				}
			} else if !e.dfs(fd.next, ev, f) {
				return false
			}
		}
		if x = e.arr[x].next; x < 0 {
			break
		}
	}
	return true
}

// tuple converts an event list into a span tuple.
func (e *Enumerator) tuple(events []event) spans.Tuple {
	t := make(spans.Tuple, len(e.d.Index.Vars()))
	for _, ev := range events {
		pos := ev.boundary + 1 // 1-based document position
		for _, mk := range e.c.Markers(ev.mask) {
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

// EachTotal is Each restricted to tuples that assign every variable of
// vars — the functional-semantics view of the enumeration. The filter
// runs inside the constant-delay walk, so callers needing functional
// results don't materialize the schemaless relation first.
func (e *Enumerator) EachTotal(vars spans.VarSet, f func(t spans.Tuple) bool) {
	e.Each(func(t spans.Tuple) bool {
		if !t.TotalOn(vars) {
			return true
		}
		return f(t)
	})
}

// Count returns the number of result tuples. It runs the tuple-free
// counting walk — no tuples are materialized.
func (e *Enumerator) Count() int {
	n, _ := e.CountTotal(nil, nil)
	return n
}

// CountTotal counts the tuples that assign every variable of vars (all
// tuples when vars is empty) without building a single tuple: the walk
// accumulates the fired masks and tests the open-marker bits against
// vars, because a valid run opens a variable iff it assigns it. poll, if
// non-nil, runs once per counted tuple; returning false aborts the walk,
// reporting complete=false alongside the partial count.
func (e *Enumerator) CountTotal(vars spans.VarSet, poll func() bool) (n int, complete bool) {
	need, ok := e.d.Index.OpenBits(vars)
	if !ok {
		return 0, true
	}
	return e.countWalk(0, 0, need, 0, poll)
}

// countWalk is the dfs walk with the event list replaced by the
// accumulated mask — constant space per tuple, no allocation at all.
func (e *Enumerator) countWalk(x int32, acc, need automata.Mask, n int, poll func() bool) (int, bool) {
	if e.finishable[x] && acc&need == need {
		n++
		if poll != nil && !poll() {
			return n, false
		}
	}
	for k := e.arr[x].jump; k >= 0; k = e.arr[x].jump {
		for x = e.fires[k].from; int(k) < len(e.fires) && e.fires[k].from == x; k++ {
			fd := e.fires[k]
			if !e.live(fd) {
				continue
			}
			m := acc | fd.mask
			if fd.next >= 0 {
				var done bool
				if n, done = e.countWalk(fd.next, m, need, n, poll); !done {
					return n, false
				}
			} else if m&need == need {
				n++
				if poll != nil && !poll() {
					return n, false
				}
			}
		}
		if x = e.arr[x].next; x < 0 {
			break
		}
	}
	return n, true
}

// All materializes the full relation (mainly for tests; defeats the point
// of enumeration on large outputs).
func (e *Enumerator) All() *spans.Relation {
	out := spans.NewRelation()
	e.Each(func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}
