package automata

import (
	"fmt"
	"sort"

	"docspanner/internal/refwords"
)

// Compiled transition kernels. The map-based transition tables of NFA and
// DEVA are the right representation while an automaton is being built and
// transformed, but they are a poor fit for the evaluation hot paths: every
// Step is a hash lookup, and the compressed-evaluation kernel (Section 4.2
// of the survey) re-derived its per-letter Boolean matrices for every new
// Matcher. CompileNFA and CompileDEVA flatten an automaton — once it is
// fully built — into dense per-letter arrays and matrices; the Compiled
// accessors keep the result on the automaton it was derived from, so
// every matcher, index, and enumerator over the same automaton shares one
// compilation and the compilation is collectable with the automaton.
//
// A compiled automaton is immutable and safe for concurrent use. The
// source automaton must not be mutated after its first compilation.

// MaskEdge is one mask transition of a compiled DEVA, sorted by mask so
// that enumeration visits markers in a deterministic order.
type MaskEdge struct {
	Mask Mask
	To   int32
}

// CompiledDEVA is a DEVA with transitions flattened into dense arrays:
// letter steps become a single int32 slice indexed [letter-index·NQ + q],
// and each state's mask transitions become a sorted edge list.
type CompiledDEVA struct {
	DEVA    *DEVA
	NQ      int
	Start   int
	Final   []bool
	Letters []byte // sorted distinct letters on transitions

	letterIndex [256]int16 // byte → index into Letters, -1 if absent
	step        []int32    // [li*NQ+q] → successor state, -1 if none
	MaskEdges   [][]MaskEdge

	// markers caches the expanded, sorted marker set of every mask that
	// occurs on a transition, so the per-tuple reconstruction in the
	// enumerators stops allocating and re-sorting per event.
	markers map[Mask]refwords.MarkerSet
}

// CompileDEVA flattens d into dense transition arrays. The automaton
// must be fully built; it is not retained for mutation.
func CompileDEVA(d *DEVA) *CompiledDEVA {
	nq := d.NumStates()
	letters, _ := d.AlphabetAndMasks()
	c := &CompiledDEVA{
		DEVA:    d,
		NQ:      nq,
		Start:   d.Start,
		Final:   d.Final,
		Letters: letters,
		step:    make([]int32, len(letters)*nq),
	}
	for b := range c.letterIndex {
		c.letterIndex[b] = -1
	}
	for li, b := range letters {
		c.letterIndex[b] = int16(li)
		row := c.step[li*nq : (li+1)*nq]
		for q := 0; q < nq; q++ {
			row[q] = int32(d.Step(q, b))
		}
	}
	c.MaskEdges = make([][]MaskEdge, nq)
	c.markers = make(map[Mask]refwords.MarkerSet)
	for q := 0; q < nq; q++ {
		for m, t := range d.Masks[q] {
			c.MaskEdges[q] = append(c.MaskEdges[q], MaskEdge{m, int32(t)})
			if _, ok := c.markers[m]; !ok {
				c.markers[m] = d.Index.Markers(m)
			}
		}
		sort.Slice(c.MaskEdges[q], func(i, j int) bool {
			return c.MaskEdges[q][i].Mask < c.MaskEdges[q][j].Mask
		})
	}
	return c
}

// Markers returns the expanded, sorted marker set of m, cached at
// compilation time for every mask on a transition. The returned slice is
// shared: callers must not mutate it. Masks that never occur on a
// transition fall back to the allocating expansion.
func (c *CompiledDEVA) Markers(m Mask) refwords.MarkerSet {
	if ms, ok := c.markers[m]; ok {
		return ms
	}
	return c.DEVA.Index.Markers(m)
}

// Step returns the letter successor of q on b, or -1 — the dense
// equivalent of DEVA.Step.
func (c *CompiledDEVA) Step(q int, b byte) int32 {
	li := c.letterIndex[b]
	if li < 0 {
		return -1
	}
	return c.step[int(li)*c.NQ+q]
}

// StepsFor returns the dense successor row for letter b (indexed by
// state, -1 entries for missing transitions), or nil when no transition
// reads b anywhere. Hot loops index the row directly instead of calling
// Step per state.
func (c *CompiledDEVA) StepsFor(b byte) []int32 {
	li := c.letterIndex[b]
	if li < 0 {
		return nil
	}
	return c.step[int(li)*c.NQ : (int(li)+1)*c.NQ]
}

// Compiled returns the dense compilation of d, building it on first
// use. All callers over one DEVA share the same compilation; d must not
// be mutated after the first call.
func (d *DEVA) Compiled() *CompiledDEVA {
	d.compiledOnce.Do(func() { d.compiled = CompileDEVA(d) })
	return d.compiled
}

// CompiledNFA holds the per-letter reachability matrices of a plain NFA
// (no markers, no references): Closure is the reflexive-transitive
// ε-closure matrix C, and each letter b gets L_b = C·S_b·C, so products
// of the L_b compose correctly because C is idempotent. This is the
// Boolean-matrix kernel of compressed membership (Section 4.2).
type CompiledNFA struct {
	NFA     *NFA
	NQ      int
	Closure *BoolMatrix
	Letters []byte

	mats [256]*BoolMatrix // per byte; unknown letters share the zero matrix
	zero *BoolMatrix

	// EmptyAccept reports whether the empty document is accepted.
	EmptyAccept bool
}

// CompileNFA builds the matrix compilation of a plain NFA. It errors on
// automata with marker or reference transitions (those represent
// spanners, not languages, and take the DEVA route).
func CompileNFA(n *NFA) (*CompiledNFA, error) {
	if n.HasRefs() {
		return nil, fmt.Errorf("automata: CompileNFA on an automaton with reference transitions")
	}
	for _, tr := range n.Markers {
		if len(tr) > 0 {
			return nil, fmt.Errorf("automata: CompileNFA on an automaton with marker transitions")
		}
	}
	nq := n.NumStates()
	c := &CompiledNFA{NFA: n, NQ: nq, Letters: n.Alphabet(), zero: NewBoolMatrix(nq)}
	// Reflexive-transitive ε-closure matrix C.
	cl := IdentityMatrix(nq)
	for q := 0; q < nq; q++ {
		for _, r := range n.EpsClosure([]int{q}) {
			cl.Set(q, r)
		}
	}
	c.Closure = cl
	for _, q := range n.EpsClosure([]int{n.Start}) {
		if n.Final[q] {
			c.EmptyAccept = true
			break
		}
	}
	for b := range c.mats {
		c.mats[b] = c.zero
	}
	// One scratch pair shared across all letters, and one arena for the
	// retained per-letter results: compilation allocates O(1) times for
	// the whole alphabet, not twice per letter (the regression gate is
	// TestCompileNFAAllocsPerLetter).
	s := NewBoolMatrix(nq)
	tmp := NewBoolMatrix(nq)
	w := s.w
	arena := make([]uint64, len(c.Letters)*nq*w)
	mats := make([]BoolMatrix, len(c.Letters))
	for li, b := range c.Letters {
		clear(s.rows)
		for p := 0; p < nq; p++ {
			for _, r := range n.Letters[p][b] {
				s.Set(p, r)
			}
		}
		// L_b = C·S_b·C, built with the in-place kernels.
		tmp.MulInto(cl, s)
		m := &mats[li]
		*m = BoolMatrix{N: nq, w: w, rows: arena[li*nq*w : (li+1)*nq*w : (li+1)*nq*w]}
		m.MulInto(tmp, cl)
		c.mats[b] = m
	}
	return c, nil
}

// LetterMatrix returns L_b (the zero matrix for letters unknown to the
// automaton — no transition reads them, so nothing is reachable).
func (c *CompiledNFA) LetterMatrix(b byte) *BoolMatrix { return c.mats[b] }

// CompiledMatrices returns the matrix compilation of n, building it on
// first use; n must not be mutated after the first call.
func (n *NFA) CompiledMatrices() (*CompiledNFA, error) {
	n.matsOnce.Do(func() { n.mats, n.matsErr = CompileNFA(n) })
	return n.mats, n.matsErr
}
