package slpmatch

import (
	"math/big"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
)

// Counting over compressed documents: for each SLP node A, an integer
// matrix N_A[p][q] counts the runs of the deterministic eVA from p to q
// reading 𝔇(A) (with at most one mask before each letter). Matrices
// compose multiplicatively along the grammar, so the exact number of
// result tuples of a spanner on an SLP-compressed document — a quantity
// that can be astronomically large — is computed in O(|S|) big-integer
// matrix products without enumeration and without decompression.

// Counter carries the per-node count matrices for one deterministic eVA
// in a table of its own; a Counter is safe for concurrent use.
type Counter struct {
	c         *automata.CompiledDEVA
	nq        int
	memo      *nodeCache[countMatrix]
	leaf      [256]countMatrix
	finalWays []*big.Int // read-only after construction
}

// countMatrix is a dense nq×nq matrix of big integers (nil = zero). A
// stored matrix is immutable.
type countMatrix []*big.Int

// NewCounter prepares a counter for the automaton.
func NewCounter(d *automata.DEVA) *Counter {
	c := d.Compiled()
	nq := c.NQ
	ct := &Counter{c: c, nq: nq, memo: newNodeCache[countMatrix](0)}

	zero := make(countMatrix, nq*nq)
	for b := range ct.leaf {
		ct.leaf[b] = zero
	}
	one := big.NewInt(1)
	for _, b := range c.Letters {
		steps := c.StepsFor(b)
		m := make(countMatrix, nq*nq)
		add := func(p, q int) {
			i := p*nq + q
			if m[i] == nil {
				m[i] = new(big.Int)
			}
			m[i].Add(m[i], one)
		}
		for q := 0; q < nq; q++ {
			if s := steps[q]; s >= 0 {
				add(q, int(s))
			}
			for _, me := range c.MaskEdges[q] {
				if s := steps[me.To]; s >= 0 {
					add(q, int(s))
				}
			}
		}
		ct.leaf[b] = m
	}

	// finalWays[q] counts the accepting completions at the end boundary:
	// one for a final q, plus one per final mask successor.
	ct.finalWays = make([]*big.Int, nq)
	for q := 0; q < nq; q++ {
		w := new(big.Int)
		if c.Final[q] {
			w.SetInt64(1)
		}
		for _, me := range c.MaskEdges[q] {
			if c.Final[me.To] {
				w.Add(w, one)
			}
		}
		ct.finalWays[q] = w
	}
	return ct
}

func (ct *Counter) nodeMatrix(n *slp.Node) countMatrix {
	if n.IsLeaf() {
		return ct.leaf[n.LeafByte()]
	}
	if m, ok := ct.memo.get(n); ok {
		return m
	}
	l := ct.nodeMatrix(n.Left())
	r := ct.nodeMatrix(n.Right())
	nq := ct.nq
	m := make(countMatrix, nq*nq)
	var tmp big.Int
	for p := 0; p < nq; p++ {
		for k := 0; k < nq; k++ {
			lv := l[p*nq+k]
			if lv == nil || lv.Sign() == 0 {
				continue
			}
			for q := 0; q < nq; q++ {
				rv := r[k*nq+q]
				if rv == nil || rv.Sign() == 0 {
					continue
				}
				tmp.Mul(lv, rv)
				i := p*nq + q
				if m[i] == nil {
					m[i] = new(big.Int)
				}
				m[i].Add(m[i], &tmp)
			}
		}
	}
	ct.memo.put(n, m)
	return m
}

// CachedNodes reports the number of inner SLP nodes with computed count
// matrices in this Counter's table.
func (ct *Counter) CachedNodes() int { return ct.memo.len() }

// Flush empties the count-matrix table in place (see Index.Flush).
func (ct *Counter) Flush() { ct.memo.flush() }

// Retain forgets the count matrices of every node that no root of live
// reaches, within the same budget as Index.Retain, and returns how many
// nodes it forgot.
func (ct *Counter) Retain(live []*slp.Node) int {
	n, _ := ct.memo.retain(live)
	return n
}

// WarmDelta brings the count-matrix cache up to date after an edit that
// turned oldRoot into newRoot, recomputing only the O(log d) fresh spine
// nodes; a Count on newRoot afterwards is a single cache hit plus the
// final-vector product. A nil oldRoot warms newRoot from whatever is
// cached.
func (ct *Counter) WarmDelta(oldRoot, newRoot *slp.Node) WarmStats {
	compute := func(n *slp.Node) { ct.nodeMatrix(n) }
	return ct.memo.warmDelta(oldRoot, newRoot, compute, compute)
}

// Count returns the exact number of result tuples of the spanner on
// 𝔇(root), computed on the compressed representation. Runs of a
// deterministic eVA are in bijection with tuples, so the count is exact
// even when it far exceeds what enumeration could ever produce.
func (ct *Counter) Count(root *slp.Node) *big.Int {
	if root == nil {
		return new(big.Int).Set(ct.finalWays[ct.c.Start])
	}
	m := ct.nodeMatrix(root)
	total := new(big.Int)
	var tmp big.Int
	nq := ct.nq
	for q := 0; q < nq; q++ {
		v := m[ct.c.Start*nq+q]
		if v == nil || v.Sign() == 0 || ct.finalWays[q].Sign() == 0 {
			continue
		}
		tmp.Mul(v, ct.finalWays[q])
		total.Add(total, &tmp)
	}
	return total
}
