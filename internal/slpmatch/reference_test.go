package slpmatch

import (
	"docspanner/internal/automata"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
)

// refData is the P/E/E⁺ data of one SLP node, leaf or inner, of any
// length: the reference walk's own table, independent of the Index's,
// which holds only the long nodes.
type refData struct {
	pure   []int32
	em, ep *automata.BoolMatrix
}

// refTable computes refData for every node of root's DAG by the
// definitions, with Get/Set loops: a leaf's from the automaton's steps
// and mask edges, an inner node AB's as P_AB = P_B∘P_A, E_AB = E_A·E_B
// and E⁺_AB = E⁺_A·E_B ∨ P_A;E⁺_B.
func refTable(ix *Index, root *slp.Node) map[*slp.Node]*refData {
	c, nq := ix.c, ix.nq
	tab := map[*slp.Node]*refData{}
	var data func(n *slp.Node) *refData
	data = func(n *slp.Node) *refData {
		if d, ok := tab[n]; ok {
			return d
		}
		d := &refData{pure: make([]int32, nq), em: automata.NewBoolMatrix(nq), ep: automata.NewBoolMatrix(nq)}
		if n.IsLeaf() {
			b := n.LeafByte()
			for q := 0; q < nq; q++ {
				d.pure[q] = c.Step(q, b)
				if s := d.pure[q]; s >= 0 {
					d.em.Set(q, int(s))
				}
				for _, me := range c.MaskEdges[q] {
					if s := c.Step(int(me.To), b); s >= 0 {
						d.em.Set(q, int(s))
						d.ep.Set(q, int(s))
					}
				}
			}
		} else {
			l, r := data(n.Left()), data(n.Right())
			for p := 0; p < nq; p++ {
				d.pure[p] = -1
				if s := l.pure[p]; s >= 0 {
					d.pure[p] = r.pure[s]
					for q := 0; q < nq; q++ {
						if r.ep.Get(int(s), q) {
							d.ep.Set(p, q)
						}
					}
				}
				for k := 0; k < nq; k++ {
					lm, lp := l.em.Get(p, k), l.ep.Get(p, k)
					if !lm && !lp {
						continue
					}
					for q := 0; q < nq; q++ {
						if r.em.Get(k, q) {
							if lm {
								d.em.Set(p, q)
							}
							if lp {
								d.ep.Set(p, q)
							}
						}
					}
				}
			}
		}
		tab[n] = d
		return d
	}
	if root != nil {
		data(root)
	}
	return tab
}

// refEach is Index.Each on the reference walk over the table tab.
func refEach(ix *Index, tab map[*slp.Node]*refData, root *slp.Node, f func(spans.Tuple) bool) {
	e := &refEnum{cenum: cenum{ix: ix, root: root, emit: f}, tab: tab}
	events := make([]event, 0, 2*len(ix.c.DEVA.Index.Vars())+1)
	e.dfs(ix.c.Start, 0, events, 0)
}

// refCountTotal is Index.CountTotal on the reference walk over tab.
func refCountTotal(ix *Index, tab map[*slp.Node]*refData, root *slp.Node, vars spans.VarSet, poll func() bool) (int, bool) {
	need, ok := ix.c.DEVA.Index.OpenBits(vars)
	if !ok {
		return 0, true
	}
	e := &refEnum{cenum: cenum{ix: ix, root: root, countOnly: true, need: need, poll: poll}, tab: tab}
	e.dfs(ix.c.Start, 0, nil, 0)
	return e.count, !e.aborted
}

// refEnum is the walk this package had before the frame-resuming one:
// every fired event re-descends from the root to the boundary after it,
// pulling the alive vector back level by level, and it descends to the
// leaves instead of reading blocks as text. It stays as the oracle for
// the ORDER of Index.Each and for CountTotal's partial counts under
// early stop and poll abort. It borrows cenum's fields and helpers
// (counting, finish) and replaces only the walk, which looks node data
// up in its own table (refTable) and pulls alive vectors back by the
// definition of the matrix-vector product, not by the kernel the walk
// uses.
type refEnum struct {
	cenum
	tab map[*slp.Node]*refData
}

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
	if a.IsLeaf() {
		steps := e.tab[a].pure
		for _, me := range e.ix.c.MaskEdges[q] {
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
		nd := e.tab[a]
		if !vecMeets(nd.ep, q, av) {
			return nd.pure[q]
		}
	}
	// Pull the alive vector back over the right part, avL = E_R·av,
	// by the definition: p is alive before the right part iff E_R leads
	// it to a state alive after it.
	e.expanded++
	em := e.tab[a.Right()].em
	avL := automata.NewBitVec(em.N)
	for p := 0; p < em.N; p++ {
		if vecMeets(em, p, av) {
			automata.BitSet(avL, p)
		}
	}
	ls := e.walk(a.Left(), q, i, avL, off, events, acc)
	if e.aborted || ls < 0 {
		return -1
	}
	return e.walk(a.Right(), int(ls), 0, av, off+llen, events, acc)
}

// vecMeets reports, by Get, whether row p of m meets the vector v.
func vecMeets(m *automata.BoolMatrix, p int, v []uint64) bool {
	for q := 0; q < m.N; q++ {
		if m.Get(p, q) && vecGet(v, q) {
			return true
		}
	}
	return false
}
