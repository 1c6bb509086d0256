package slpmatch

import (
	"math/bits"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
)

// Blocks. The index keeps a table only for the SLP nodes longer than
// blockLen bytes; a node of length ≤ blockLen is a block. On a
// Re-Pair-compressed log most nodes are blocks, and a block's |Q|²-bit
// table is larger than its text, so the index stores none for it:
//
//   - a long node copies its block children's bytes into its own slab;
//   - building a long node derives its block children's P/E/E⁺ data from
//     their bytes in scratch (blockData) and combines it as usual;
//   - the walk reads a block as text (scan), firing mask edges byte by
//     byte in the order a descent to its leaves would, and checks that a
//     fired mask can still accept by stepping forward from it (meets)
//     or, once those checks have read twice the text, by pulling the
//     alive vector back over the block's bytes (pullRows);
//   - a fired mask whose successor is quiet (no run from it takes a
//     mask) stands for exactly one tuple, emitted without walking on.
//
// Every traversal of the table (Warm, WarmParallel, WarmDelta, Retain's
// sweep) stops at blocks, so a block is never "uncached". The delay
// between two tuples becomes O(ord(root) + blockLen) steps instead of
// O(ord(root)) — still independent of |D|.

// blockLen is B, the length of the longest SLP node the index reads as
// text instead of keeping a table for.
const blockLen = 32

// long reports whether the index keeps a table for node n.
func long(n *slp.Node) bool { return n.Len() > blockLen }

// TabledNodes counts the distinct nodes of the DAGs under roots that an
// Index keeps a table for once it has warmed them: the nodes longer than
// its block length. (A Counter keeps one for every inner node.)
func TabledNodes(roots ...*slp.Node) int {
	return len(reachable(roots, blockLen, 0))
}

// appendText appends the text of n to dst.
func appendText(dst []byte, n *slp.Node) []byte {
	for !n.IsLeaf() {
		dst = appendText(dst, n.Left())
		n = n.Right()
	}
	return append(dst, n.LeafByte())
}

// letterTable is an index's data for every byte b, flat and indexed by
// b's letter class k = class[b] (one class per letter of the automaton,
// and a last, dead one for every other byte — a letter the automaton
// never reads kills every run): for state q, step[k·nq+q] is P_b(q)<<1,
// with bit 0 set if q has a mask edge that b does not kill; and em, ep
// and pred hold E_b, E⁺_b and E_b transposed (the states that reach
// each state over b) as nq rows of w words from k·nq·w on. One load per
// byte reads the walk's pure step.
type letterTable struct {
	nq, w        int
	class        [256]uint16
	step         []int32
	em, ep, pred []uint64
}

func newLetterTable(c *automata.CompiledDEVA, w int) *letterTable {
	nq, k := c.NQ, len(c.Letters)
	t := &letterTable{nq: nq, w: w, step: make([]int32, (k+1)*nq)}
	t.em, t.ep, t.pred = make([]uint64, (k+1)*nq*w), make([]uint64, (k+1)*nq*w), make([]uint64, (k+1)*nq*w)
	for b := range t.class {
		t.class[b] = uint16(k)
	}
	for q := 0; q < nq; q++ {
		t.step[k*nq+q] = -1 << 1
	}
	set := func(m []uint64, li, p, q int) { m[(li*nq+p)*w+q/64] |= 1 << uint(q%64) }
	for li, b := range c.Letters {
		t.class[b] = uint16(li)
		steps := c.StepsFor(b)
		for q := 0; q < nq; q++ {
			t.step[li*nq+q] = steps[q] << 1
			if s := steps[q]; s >= 0 {
				set(t.em, li, q, int(s))
				set(t.pred, li, int(s), q)
			}
			for _, me := range c.MaskEdges[q] {
				if s := steps[me.To]; s >= 0 {
					set(t.em, li, q, int(s))
					set(t.ep, li, q, int(s))
					set(t.pred, li, int(s), q)
					t.step[li*nq+q] |= 1
				}
			}
		}
	}
	return t
}

// at returns where b's entries start in step, and, for automata of at
// most 64 states (w = 1), in em, ep and pred.
func (t *letterTable) at(b byte) int { return int(t.class[b]) * t.nq }

// rows returns b's rows of m (em, ep or pred).
func (t *letterTable) rows(m []uint64, b byte) []uint64 {
	k := int(t.class[b]) * t.nq * t.w
	return m[k : k+t.nq*t.w]
}

// quietStates marks the states from which no run takes a mask: a state
// without mask edges whose letter successors are all quiet. A run alive
// in a quiet state is the pure run, so it stands for exactly one tuple.
func quietStates(c *automata.CompiledDEVA) []bool {
	quiet := make([]bool, c.NQ)
	for q := range quiet {
		quiet[q] = len(c.MaskEdges[q]) == 0
	}
	for changed := true; changed; {
		changed = false
		for q := range quiet {
			if !quiet[q] {
				continue
			}
			for _, b := range c.Letters {
				if s := c.StepsFor(b)[q]; s >= 0 && !quiet[s] {
					quiet[q], changed = false, true
					break
				}
			}
		}
	}
	return quiet
}

// image ORs into dst the rows of m (w words each) that the set v
// selects: v's successors when m is E_b, its predecessors when m is
// pred.
func image(dst, m, v []uint64, w int) {
	for wi, word := range v {
		for word != 0 {
			r := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for k, x := range m[r*w : r*w+w] {
				dst[k] |= x
			}
		}
	}
}

// image1 is image for automata of at most 64 states, over the rows of m
// from k on.
func image1(m []uint64, k int, v uint64) (out uint64) {
	for ; v != 0; v &= v - 1 {
		out |= m[k+bits.TrailingZeros64(v)]
	}
	return out
}

func isZero(v []uint64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// blockData computes into nd the P/E/E⁺ data of a block's text, with
// one forward pass per start state p: S, the states the runs from p
// reach; S⁺, those a run with at least one mask reaches; and the pure
// run's state s. Per byte b, S becomes S·E_b, S⁺ becomes S⁺·E_b ∪
// E⁺_b[s], and s becomes P_b(s) — combine's rules with a one-letter
// right part. vecs is scratch for automata of more than 64 states,
// allocated here on first use.
func (ix *Index) blockData(nd *nodeData, text []byte, vecs *[4][]uint64) {
	if ix.words == 1 {
		ix.blockData1(nd, text)
		return
	}
	w := ix.words
	if vecs[0] == nil {
		for i := range vecs {
			vecs[i] = automata.NewBitVec(ix.nq)
		}
	}
	for p := 0; p < ix.nq; p++ {
		cur, nxt, curP, nxtP := vecs[0], vecs[1], vecs[2], vecs[3]
		clear(cur)
		clear(curP)
		automata.BitSet(cur, p)
		s := int32(p)
		for _, b := range text {
			lt, em := ix.lt, ix.lt.rows(ix.lt.em, b)
			clear(nxt)
			clear(nxtP)
			image(nxt, em, cur, w)
			image(nxtP, em, curP, w)
			if s >= 0 {
				for k, x := range lt.rows(lt.ep, b)[int(s)*w : int(s)*w+w] {
					nxtP[k] |= x
				}
				s = lt.step[lt.at(b)+int(s)] >> 1
			}
			cur, nxt = nxt, cur
			curP, nxtP = nxtP, curP
			if isZero(cur) {
				break // S⁺ ⊆ S, and the pure run is in S: every run died
			}
		}
		copy(nd.em.Row(p), cur)
		copy(nd.ep.Row(p), curP)
		nd.pure[p] = s
	}
}

// blockData1 is blockData for automata of at most 64 states, with S and
// S⁺ in one word each.
func (ix *Index) blockData1(nd *nodeData, text []byte) {
	lt := ix.lt
	var at [blockLen]int
	for j, b := range text {
		at[j] = lt.at(b)
	}
	for p := 0; p < ix.nq; p++ {
		cur, curP, s := uint64(1)<<uint(p), uint64(0), int32(p)
		for _, k := range at[:len(text)] {
			var nxt, nxtP uint64
			for v := cur; v != 0; v &= v - 1 {
				r := bits.TrailingZeros64(v)
				x := lt.em[k+r]
				nxt |= x
				nxtP |= x & -(curP >> uint(r) & 1)
			}
			if s >= 0 {
				nxtP |= lt.ep[k+int(s)]
				s = lt.step[k+int(s)] >> 1
			}
			cur, curP = nxt, nxtP
			if cur == 0 {
				break
			}
		}
		nd.em.Row(p)[0], nd.ep.Row(p)[0], nd.pure[p] = cur, curP, s
	}
}

// meets reports whether some run from a state of v over text and then
// tail ends in a state of av. v is overwritten.
func (e *cenum) meets(v []uint64, text, tail []byte, av []uint64) bool {
	lt, w := e.ix.lt, e.ix.words
	if w == 1 {
		x := v[0]
		for _, t := range [2][]byte{text, tail} {
			for _, b := range t {
				if x == 0 {
					return false
				}
				e.scanned++
				x = image1(lt.em, lt.at(b), x)
			}
		}
		return x&av[0] != 0
	}
	tmp := e.getVec()
	defer e.putVec(tmp)
	for _, t := range [2][]byte{text, tail} {
		for _, b := range t {
			if isZero(v) {
				return false
			}
			e.scanned++
			clear(tmp)
			image(tmp, lt.rows(lt.em, b), v, w)
			copy(v, tmp)
		}
	}
	return meet(v, av)
}

// pull overwrites v with the states from which some run over text ends
// in a state of v.
func (e *cenum) pull(v []uint64, text []byte) {
	lt, w := e.ix.lt, e.ix.words
	if w == 1 {
		x := v[0]
		for j := len(text) - 1; j >= 0 && x != 0; j-- {
			e.scanned++
			x = image1(lt.pred, lt.at(text[j]), x)
		}
		v[0] = x
		return
	}
	tmp := e.getVec()
	for j := len(text) - 1; j >= 0 && !isZero(v); j-- {
		e.scanned++
		clear(tmp)
		image(tmp, lt.rows(lt.pred, text[j]), v, w)
		copy(v, tmp)
	}
	e.putVec(tmp)
}

// pullRows fills rows with the alive vectors at the len(text)+1
// boundaries of a block's text, row j at rows[j·w:(j+1)·w]: the last row
// holds the states whose runs over tail end in av, and row j those whose
// runs over text[j:] do. A byte costs one row OR per alive state after
// it, and the rows before an empty one are empty.
func (e *cenum) pullRows(rows []uint64, text, tail []byte, av []uint64) {
	w := e.ix.words
	last := rows[len(text)*w : (len(text)+1)*w]
	copy(last, av)
	e.pull(last, tail)
	for j := len(text) - 1; j >= 0; j-- {
		src := rows[(j+1)*w : (j+2)*w]
		if isZero(src) {
			clear(rows[:(j+1)*w])
			return
		}
		e.scanned++
		dst := rows[j*w : (j+1)*w]
		clear(dst)
		image(dst, e.ix.lt.rows(e.ix.lt.pred, text[j]), src, w)
	}
}

// scan reads a block's text at absolute offset off from state q, as the
// walk would read its leaves: at each boundary it fires the mask edges of
// q, in MaskEdges order, whose successor can still accept, continuing
// each through the rest of the text and then the frames from next (or
// emitting its one tuple at once from a quiet successor), and then takes
// the pure step. The states alive at the text's end are those whose runs
// over tail end in av; alive, if non-nil, holds the alive rows of the
// text's boundaries (pullRows). A fired mask is checked forward (meets)
// while those checks have read fewer bytes than the text and tail twice
// over, and against pulled-back rows after that, so a scan reads
// O(len(text) + len(tail)) bytes besides its continuations. Returns the pure exit
// state (−1 if the pure run dies).
func (e *cenum) scan(text, tail []byte, alive, av []uint64, q int, off int64, next int, events []event, acc automata.Mask) int32 {
	if e.aborted {
		return -1
	}
	ix, w := e.ix, e.ix.words
	var own []uint64
	budget := 2 * (len(text) + len(tail))
	exit, read := int32(q), len(text)
bytes:
	for j, b := range text {
		steps := ix.lt.step[ix.lt.at(b):]
		if st := steps[exit]; st&1 == 0 {
			if exit = st >> 1; exit < 0 {
				read = j + 1
				break
			}
			continue
		}
		for _, me := range ix.c.MaskEdges[exit] {
			s := steps[me.To] >> 1
			if s < 0 {
				continue
			}
			var ok bool
			switch {
			case alive != nil:
				ok = vecGet(alive[(j+1)*w:], int(s))
			case budget > 0:
				v := e.getVec()
				clear(v)
				automata.BitSet(v, int(s))
				before := e.scanned
				ok = e.meets(v, text[j+1:], tail, av)
				budget -= e.scanned - before + 1
				e.putVec(v)
			default:
				own = e.getRows()
				alive = own
				e.pullRows(alive, text, tail, av)
				ok = vecGet(alive[(j+1)*w:], int(s))
			}
			if !ok {
				continue
			}
			if ix.quiet[s] {
				// The one run from s accepts: its tuple needs no walk.
				if e.countOnly {
					e.accept(nil, acc|me.Mask)
				} else {
					e.accept(append(events, event{off + int64(j), me.Mask}), acc)
				}
				if e.aborted {
					exit = -1
					break bytes
				}
				continue
			}
			f := next
			if j+1 < len(text) {
				fr := frame{text: text[j+1:], tail: tail, av: av, off: off + int64(j) + 1, next: next}
				if alive != nil {
					fr.alive = alive[(j+1)*w:]
				}
				e.frames = append(e.frames, fr)
				f = len(e.frames) - 1
			}
			if e.countOnly {
				e.resume(int(s), f, nil, acc|me.Mask)
			} else {
				e.resume(int(s), f, append(events, event{off + int64(j), me.Mask}), acc)
			}
			if f != next {
				e.frames = e.frames[:f]
			}
			if e.aborted {
				exit, read = -1, j+1
				break bytes
			}
		}
		if exit = steps[exit] >> 1; exit < 0 {
			read = j + 1
			break
		}
	}
	e.scanned += read
	if own != nil {
		e.putRows(own)
	}
	return exit
}
