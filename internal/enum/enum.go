// Package enum implements the enumeration problem for regular spanners
// (Section 2.5 of Schmid and Schweikardt's PODS 2022 survey): after a
// preprocessing phase LINEAR in the document length, all result tuples are
// enumerated without repetition with CONSTANT delay in data complexity.
//
// The algorithm follows Florenzano, Riveros, Ugarte, Vansummeren, and
// Vrgoč (ACM TODS 2020): the spanner is first compiled into a
// deterministic extended vset-automaton (query complexity only — this cost
// vanishes in data complexity, as the survey notes), the preprocessing
// computes per-position liveness and jump tables over the product of
// automaton states and document positions, and the enumeration phase walks
// only "event boundaries" — positions where a marker set can fire on some
// accepting run — skipping deterministic letter-only stretches in O(1) via
// the jump pointers. Every node of the search tree is live (leads to at
// least one output), so the delay between consecutive tuples is bounded by
// the automaton size and variable count, independent of the document.
package enum

import (
	"sync"

	"docspanner/internal/automata"
	"docspanner/internal/spans"
)

// Liveness flags of one (boundary, state) table cell, packed into one
// byte so the preprocessing fills a third of the memory the three
// separate bool tables used to.
const (
	fAliveNoMask = 1 << iota // accepting run from (q,i) whose next action is a letter (or i=n and final)
	fAlive                   // accepting run from (q,i), mask at i still allowed
	fFinishable              // pure-letter run from (q,i) to acceptance, no further masks
)

// Enumerator holds the preprocessed data structures for one (spanner,
// document) pair. After NewEnumerator returns, the tables are read-only:
// Each, Count, and All may run concurrently from multiple goroutines, and
// several Enumerators may share one DEVA (which Determinize returns fully
// built and is never mutated here; its dense compilation is built once
// and shared by its Enumerators).
type Enumerator struct {
	d   *automata.DEVA
	c   *automata.CompiledDEVA
	doc []byte

	// Flat (n+1)×Q tables, indexed [i*nq+q].
	flags     []uint8 // fAliveNoMask | fAlive | fFinishable
	jump      []int32 // next boundary ≥ i with a live mask event, following letters; -1 if none
	jumpState []int32 // automaton state at that boundary

	tabs *enumTables // pooled backing storage of the tables above
}

// tablePool recycles preprocessing tables between Enumerators: one
// request's O(|doc|·|Q|) tables serve the next request instead of the
// garbage collector. Release hands them back.
var tablePool sync.Pool // *enumTables

type enumTables struct {
	flags []uint8
	ints  []int32 // jump and jumpState, one backing array
}

func getTables(cells int) *enumTables {
	if v := tablePool.Get(); v != nil {
		t := v.(*enumTables)
		if cap(t.flags) >= cells && cap(t.ints) >= 2*cells {
			t.flags = t.flags[:cells]
			t.ints = t.ints[:2*cells]
			return t
		}
	}
	return &enumTables{flags: make([]uint8, cells), ints: make([]int32, 2*cells)}
}

// Release returns the preprocessing tables to the shared pool. The
// Enumerator must not be used afterwards; tuples already produced remain
// valid (they never reference the tables). Callers that let an
// Enumerator go out of scope without Release just fall back to the
// garbage collector.
func (e *Enumerator) Release() {
	if e.tabs == nil {
		return
	}
	tablePool.Put(e.tabs)
	e.tabs, e.flags, e.jump, e.jumpState = nil, nil, nil, nil
}

// NewEnumerator runs the preprocessing phase: time and space O(|doc|·|Q|)
// for the fixed automaton (linear in the document). Transitions are read
// from the dense compiled tables, not the construction-time maps. The
// tables come from a shared pool; call Release when done with the
// Enumerator to recycle them (optional but cheap).
func NewEnumerator(d *automata.DEVA, doc []byte) *Enumerator {
	n := len(doc)
	c := d.Compiled()
	nq := c.NQ
	cells := (n + 1) * nq
	t := getTables(cells)
	e := &Enumerator{
		d:         d,
		c:         c,
		doc:       doc,
		flags:     t.flags,
		jump:      t.ints[:cells:cells],
		jumpState: t.ints[cells : 2*cells : 2*cells],
		tabs:      t,
	}
	// The letter-step fill below only writes cells with a live letter
	// transition; everything else must read as zero.
	clear(e.flags)

	// Boundary n.
	base := n * nq
	for q := 0; q < nq; q++ {
		if c.Final[q] {
			e.flags[base+q] = fAliveNoMask | fFinishable
		}
	}
	for q := 0; q < nq; q++ {
		ix := base + q
		alive := e.flags[ix]&fAliveNoMask != 0
		if !alive {
			for _, me := range c.MaskEdges[q] {
				if e.flags[base+int(me.To)]&fAliveNoMask != 0 {
					alive = true
					break
				}
			}
		}
		if alive {
			e.flags[ix] |= fAlive
		}
		if e.hasEvent(n, q) {
			e.jump[ix] = int32(n)
			e.jumpState[ix] = int32(q)
		} else {
			e.jump[ix] = -1
			e.jumpState[ix] = -1
		}
	}

	// Boundaries n-1 .. 0. steps is the dense successor row for the
	// letter at i (nil when the automaton never reads that byte).
	for i := n - 1; i >= 0; i-- {
		steps := c.StepsFor(e.doc[i])
		row := e.flags[i*nq : (i+1)*nq]
		next := e.flags[(i+1)*nq : (i+2)*nq]
		if steps != nil {
			// fAliveNoMask of (q,i) = fAlive of (step(q),i+1);
			// fFinishable propagates unchanged along the letter edge.
			for q := 0; q < nq; q++ {
				if s := steps[q]; s >= 0 {
					var f uint8
					if next[s]&fAlive != 0 {
						f = fAliveNoMask
					}
					row[q] = f | next[s]&fFinishable
				}
			}
		}
		for q := 0; q < nq; q++ {
			ix := i*nq + q
			alive := row[q]&fAliveNoMask != 0
			if !alive {
				for _, me := range c.MaskEdges[q] {
					if row[int(me.To)]&fAliveNoMask != 0 {
						alive = true
						break
					}
				}
			}
			if alive {
				row[q] |= fAlive
			}
			if e.hasEvent(i, q) {
				e.jump[ix] = int32(i)
				e.jumpState[ix] = int32(q)
			} else if steps != nil && steps[q] >= 0 {
				e.jump[ix] = e.jump[(i+1)*nq+int(steps[q])]
				e.jumpState[ix] = e.jumpState[(i+1)*nq+int(steps[q])]
			} else {
				e.jump[ix] = -1
				e.jumpState[ix] = -1
			}
		}
	}
	return e
}

// hasEvent reports whether some mask can fire at (q, i) leading to a
// configuration that completes without another mask at i.
func (e *Enumerator) hasEvent(i, q int) bool {
	nq := e.c.NQ
	for _, me := range e.c.MaskEdges[q] {
		if e.flags[i*nq+int(me.To)]&fAliveNoMask != 0 {
			return true
		}
	}
	return false
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
	e.dfs(e.d.Start, 0, events, f)
}

// dfs enumerates all accepting runs from state q at boundary i (no mask
// taken at i yet), with events collected so far. Returns false if the
// callback aborted.
func (e *Enumerator) dfs(q, i int, events []event, f func(spans.Tuple) bool) bool {
	nq := e.c.NQ
	if e.flags[i*nq+q]&fFinishable != 0 {
		if !f(e.tuple(events)) {
			return false
		}
	}
	n := len(e.doc)
	for {
		j := e.jump[i*nq+q]
		if j < 0 {
			return true
		}
		qj := int(e.jumpState[i*nq+q])
		jb := int(j)
		for _, me := range e.c.MaskEdges[qj] {
			if e.flags[jb*nq+int(me.To)]&fAliveNoMask == 0 {
				continue
			}
			ev := append(events, event{jb, me.Mask})
			if jb == n {
				if !f(e.tuple(ev)) {
					return false
				}
				continue
			}
			s := e.c.Step(int(me.To), e.doc[jb])
			if !e.dfs(int(s), jb+1, ev, f) {
				return false
			}
		}
		if jb == n {
			return true
		}
		s := e.c.Step(qj, e.doc[jb])
		if s < 0 {
			return true
		}
		q, i = int(s), jb+1
	}
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
	return e.countWalk(e.d.Start, 0, 0, need, 0, poll)
}

// countWalk is the dfs walk with the event list replaced by the
// accumulated mask — constant space per tuple, no allocation at all.
func (e *Enumerator) countWalk(q, i int, acc, need automata.Mask, n int, poll func() bool) (int, bool) {
	nq := e.c.NQ
	if e.flags[i*nq+q]&fFinishable != 0 && acc&need == need {
		n++
		if poll != nil && !poll() {
			return n, false
		}
	}
	ln := len(e.doc)
	for {
		j := e.jump[i*nq+q]
		if j < 0 {
			return n, true
		}
		qj := int(e.jumpState[i*nq+q])
		jb := int(j)
		for _, me := range e.c.MaskEdges[qj] {
			if e.flags[jb*nq+int(me.To)]&fAliveNoMask == 0 {
				continue
			}
			if jb == ln {
				if (acc|me.Mask)&need == need {
					n++
					if poll != nil && !poll() {
						return n, false
					}
				}
				continue
			}
			s := e.c.Step(int(me.To), e.doc[jb])
			var done bool
			n, done = e.countWalk(int(s), jb+1, acc|me.Mask, need, n, poll)
			if !done {
				return n, false
			}
		}
		if jb == ln {
			return n, true
		}
		s := e.c.Step(qj, e.doc[jb])
		if s < 0 {
			return n, true
		}
		q, i = int(s), jb+1
	}
}

// All materializes the full relation (mainly for tests; defeats the point
// of enumeration on large outputs).
func (e *Enumerator) All() *spans.Relation {
	out := spans.NewRelation()
	e.Each(func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}
