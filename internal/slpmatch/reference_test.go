package slpmatch

import (
	"docspanner/internal/automata"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// refEach is Index.Each on the reference walk.
func refEach(ix *Index, root *slp.Node, f func(spans.Tuple) bool) {
	ix.Warm(root)
	e := &refEnum{cenum{ix: ix, root: root, emit: f}}
	events := make([]event, 0, 2*len(ix.c.DEVA.Index.Vars())+1)
	e.dfs(ix.c.Start, 0, events, 0)
}

// refCountTotal is Index.CountTotal on the reference walk.
func refCountTotal(ix *Index, root *slp.Node, vars spans.VarSet, poll func() bool) (int, bool) {
	need, ok := ix.c.DEVA.Index.OpenBits(vars)
	if !ok {
		return 0, true
	}
	ix.Warm(root)
	e := &refEnum{cenum{ix: ix, root: root, countOnly: true, need: need, poll: poll}}
	e.dfs(ix.c.Start, 0, nil, 0)
	return e.count, !e.aborted
}

// refEnum is the walk this package had before the frame-resuming one:
// every fired event re-descends from the root to the boundary after it,
// pulling the alive vector back level by level. It stays as the oracle
// for the ORDER of Index.Each and for CountTotal's partial counts under
// early stop and poll abort. It borrows cenum's fields and helpers
// (counting, finish) and replaces only the walk, which looks node data
// up in the index's table and pulls alive vectors back by the
// definition of the matrix-vector product, not by the kernel the walk
// uses.
type refEnum struct{ cenum }

// dfs enumerates all accepting runs from state q at absolute boundary
// pos, with the given event prefix (or accumulated mask when counting);
// no mask has fired at pos yet.
func (e *refEnum) dfs(q int, pos int64, events []event, acc automata.Mask) {
	if e.aborted {
		return
	}
	n := e.root.Len()
	if pos == n {
		e.finish(q, events, acc)
		return
	}
	exit := e.walk(e.root, q, pos, e.ix.finalAlive, 0, events, acc)
	if e.aborted || exit < 0 {
		return
	}
	e.finish(int(exit), events, acc)
}

// walk processes node a from local offset i entering state q; av is the
// alive vector for the boundary after a. It fires every productive event
// inside a (recursing into dfs for the continuation) and returns the
// pure-letter exit state (−1 if the pure run dies).
func (e *refEnum) walk(a *slp.Node, q int, i int64, av []uint64, off int64, events []event, acc automata.Mask) int32 {
	if e.aborted {
		return -1
	}
	ix := e.ix
	if a.IsLeaf() {
		b := a.LeafByte()
		steps := ix.leaf[b].pure
		for _, me := range ix.c.MaskEdges[q] {
			s := steps[me.To]
			if s < 0 || !vecGet(av, int(s)) {
				continue
			}
			if e.countOnly {
				e.dfs(int(s), off+1, nil, acc|me.Mask)
			} else {
				ev := append(events, event{off, me.Mask})
				e.dfs(int(s), off+1, ev, acc)
			}
			if e.aborted {
				return -1
			}
		}
		return steps[q]
	}
	llen := a.Left().Len()
	if i >= llen {
		return e.walk(a.Right(), q, i-llen, av, off+llen, events, acc)
	}
	// Prune whole subtrees without productive events (only valid from
	// offset 0, where E⁺ describes the whole node).
	if i == 0 {
		nd := e.ix.node(a)
		if !rowMeets(&nd.ep, q, av) {
			return nd.pure[q]
		}
	}
	// Pull the alive vector back over the right part, avL = E_R·av,
	// by the definition: p is alive before the right part iff E_R leads
	// it to a state alive after it.
	e.expanded++
	em := &e.ix.node(a.Right()).em
	avL := automata.NewBitVec(em.N)
	for p := 0; p < em.N; p++ {
		for q := 0; q < em.N; q++ {
			if em.Get(p, q) && vecGet(av, q) {
				automata.BitSet(avL, p)
				break
			}
		}
	}
	ls := e.walk(a.Left(), q, i, avL, off, events, acc)
	if e.aborted || ls < 0 {
		return -1
	}
	return e.walk(a.Right(), int(ls), 0, av, off+llen, events, acc)
}
