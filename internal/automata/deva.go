package automata

import (
	"sort"
	"strings"
	"sync"
)

// DEVA is a deterministic extended vset-automaton (Florenzano et al.,
// ACM TODS 2020; Section 2.2 Option 2 and Section 2.5 of the survey): a
// deterministic automaton over the alphabet Σ ∪ (2^Markers ∖ {∅}). A run
// on a document D = a1...an proceeds position by position: at each boundary
// it may take at most one mask transition (reading the non-empty set of
// markers at that boundary) and then reads the next letter; after the last
// letter it may take one final mask transition before accepting.
//
// Every extended subword-marked word has a unique factorization of this
// shape, so a DEVA assigns at most one run per (document, tuple) pair —
// the property that makes duplicate-free enumeration possible.
type DEVA struct {
	Index   MaskIndex
	Start   int
	Final   []bool
	Letters []map[byte]int
	Masks   []map[Mask]int

	// compiled is the dense compilation (Compiled), built once.
	compiledOnce sync.Once
	compiled     *CompiledDEVA
}

// NumStates returns the number of states.
func (d *DEVA) NumStates() int { return len(d.Final) }

// addState appends a fresh state.
func (d *DEVA) addState() int {
	id := len(d.Final)
	d.Final = append(d.Final, false)
	d.Letters = append(d.Letters, nil)
	d.Masks = append(d.Masks, nil)
	return id
}

// Step returns the letter successor of q on b, or -1.
func (d *DEVA) Step(q int, b byte) int {
	if t, ok := d.Letters[q][b]; ok {
		return t
	}
	return -1
}

// StepMask returns the mask successor of q on m, or -1.
func (d *DEVA) StepMask(q int, m Mask) int {
	if t, ok := d.Masks[q][m]; ok {
		return t
	}
	return -1
}

// Determinize converts a (nondeterministic, ε/marker-transition) NFA into
// an equivalent DEVA via subset construction. Mask transitions of the DEVA
// correspond to boundary paths of the NFA that read exactly the markers of
// the mask (in any order, interleaved with ε). The construction is
// exponential in the NFA size in the worst case — query complexity only;
// it is independent of any document.
func Determinize(n *NFA) *DEVA {
	if n.HasRefs() {
		panic("automata: Determinize on an automaton with reference transitions; dereference first (package refl)")
	}
	ix := NewMaskIndex(n.Vars)
	d := &DEVA{Index: ix}

	type key = string
	enc := func(set []int) key {
		var sb strings.Builder
		for _, q := range set {
			sb.WriteByte(byte(q))
			sb.WriteByte(byte(q >> 8))
			sb.WriteByte(byte(q >> 16))
		}
		return sb.String()
	}

	ids := make(map[key]int)
	var sets [][]int

	intern := func(set []int) int {
		k := enc(set)
		if id, ok := ids[k]; ok {
			return id
		}
		id := d.addState()
		ids[k] = id
		sets = append(sets, set)
		for _, q := range set {
			if n.Final[q] {
				d.Final[id] = true
				break
			}
		}
		return id
	}

	start := n.EpsClosure([]int{n.Start})
	intern(start)
	d.Start = 0

	for work := 0; work < len(sets); work++ {
		set := sets[work]

		// Letter transitions.
		byLetter := make(map[byte]map[int]bool)
		for _, q := range set {
			for b, rs := range n.Letters[q] {
				tgt := byLetter[b]
				if tgt == nil {
					tgt = make(map[int]bool)
					byLetter[b] = tgt
				}
				for _, r := range rs {
					tgt[r] = true
				}
			}
		}
		for b, tgt := range byLetter {
			next := n.EpsClosure(sortedKeys(tgt))
			id := intern(next)
			if d.Letters[work] == nil {
				d.Letters[work] = make(map[byte]int)
			}
			d.Letters[work][b] = id
		}

		// Mask transitions: explore boundary paths of markers and ε.
		type cfg struct {
			q    int
			mask Mask
		}
		reach := make(map[cfg]bool)
		var stack []cfg
		for _, q := range set {
			c := cfg{q, 0}
			reach[c] = true
			stack = append(stack, c)
		}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range n.Eps[c.q] {
				nc := cfg{r, c.mask}
				if !reach[nc] {
					reach[nc] = true
					stack = append(stack, nc)
				}
			}
			for m, rs := range n.Markers[c.q] {
				bit := Mask(1) << ix.Bit(m)
				if c.mask&bit != 0 {
					// Re-reading a marker within one boundary would yield
					// an invalid subword-marked word; skip.
					continue
				}
				for _, r := range rs {
					nc := cfg{r, c.mask | bit}
					if !reach[nc] {
						reach[nc] = true
						stack = append(stack, nc)
					}
				}
			}
		}
		byMask := make(map[Mask]map[int]bool)
		for c := range reach {
			if c.mask == 0 {
				continue
			}
			tgt := byMask[c.mask]
			if tgt == nil {
				tgt = make(map[int]bool)
				byMask[c.mask] = tgt
			}
			tgt[c.q] = true
		}
		for m, tgt := range byMask {
			next := sortedKeys(tgt) // already ε-closed: closure explored above
			id := intern(next)
			if d.Masks[work] == nil {
				d.Masks[work] = make(map[Mask]int)
			}
			d.Masks[work][m] = id
		}
	}
	return d
}

// DeterminizeCached is Determinize with the result kept on the NFA: the
// facade's lazy spanner determinization, the query planner's scan
// backends, and the compressed-evaluation indexes all go through this
// entry point, so an automaton is determinized at most once, whichever
// evaluation path touches it first, and the DEVA is collectable with it.
// n must not be mutated after the first call.
func DeterminizeCached(n *NFA) *DEVA {
	n.devaOnce.Do(func() { n.deva = Determinize(n) })
	return n.deva
}

// AcceptsExtended runs the DEVA on an extended word: doc plus a mask for
// every boundary 0..len(doc) (masksAt may be nil meaning all-empty;
// otherwise it must have length len(doc)+1).
func (d *DEVA) AcceptsExtended(doc []byte, masksAt []Mask) bool {
	q := d.Start
	for i := 0; i <= len(doc); i++ {
		if masksAt != nil && masksAt[i] != 0 {
			q = d.StepMask(q, masksAt[i])
			if q < 0 {
				return false
			}
		}
		if i < len(doc) {
			q = d.Step(q, doc[i])
			if q < 0 {
				return false
			}
		}
	}
	return d.Final[q]
}

// AlphabetAndMasks collects the letters and masks occurring on transitions.
func (d *DEVA) AlphabetAndMasks() ([]byte, []Mask) {
	lset := make(map[byte]bool)
	mset := make(map[Mask]bool)
	for q := range d.Final {
		for b := range d.Letters[q] {
			lset[b] = true
		}
		for m := range d.Masks[q] {
			mset[m] = true
		}
	}
	letters := make([]byte, 0, len(lset))
	for b := range lset {
		letters = append(letters, b)
	}
	sort.Slice(letters, func(i, j int) bool { return letters[i] < letters[j] })
	masks := make([]Mask, 0, len(mset))
	for m := range mset {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	return letters, masks
}

// equivResult reports the outcome of a containment/equivalence product
// search.
type equivResult struct {
	leftOnly  bool // a word accepted by d1 but not d2 exists
	rightOnly bool
}

// compare explores the synchronous product of two DEVAs over the union of
// their alphabets, restricted to well-formed extended words (no two
// consecutive mask symbols — consecutive markers always form a single
// set, Section 2.2). Dead states are represented by -1.
func compare(d1, d2 *DEVA) equivResult {
	l1, m1 := d1.AlphabetAndMasks()
	l2, m2 := d2.AlphabetAndMasks()
	letters := unionBytes(l1, l2)
	masks := unionMasks(m1, m2)

	type pair struct {
		a, b    int
		wasMask bool
	}
	start := pair{d1.Start, d2.Start, false}
	seen := map[pair]bool{start: true}
	stack := []pair{start}
	var res equivResult
	final := func(d *DEVA, q int) bool { return q >= 0 && d.Final[q] }
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f1, f2 := final(d1, p.a), final(d2, p.b)
		if f1 && !f2 {
			res.leftOnly = true
		}
		if f2 && !f1 {
			res.rightOnly = true
		}
		if res.leftOnly && res.rightOnly {
			return res
		}
		step := func(a, b int, wasMask bool) {
			if a < 0 && b < 0 {
				return
			}
			np := pair{a, b, wasMask}
			if !seen[np] {
				seen[np] = true
				stack = append(stack, np)
			}
		}
		for _, c := range letters {
			a, b := -1, -1
			if p.a >= 0 {
				a = d1.Step(p.a, c)
			}
			if p.b >= 0 {
				b = d2.Step(p.b, c)
			}
			step(a, b, false)
		}
		if !p.wasMask {
			for _, m := range masks {
				a, b := -1, -1
				if p.a >= 0 {
					a = d1.StepMask(p.a, m)
				}
				if p.b >= 0 {
					b = d2.StepMask(p.b, m)
				}
				step(a, b, true)
			}
		}
	}
	return res
}

// Contains reports whether L(d1) ⊆ L(d2). Both automata must use the same
// variable ordering (masks are compared bit-for-bit).
func Contains(d1, d2 *DEVA) bool {
	return !compare(d1, d2).leftOnly
}

// Equivalent reports whether L(d1) = L(d2).
func Equivalent(d1, d2 *DEVA) bool {
	r := compare(d1, d2)
	return !r.leftOnly && !r.rightOnly
}

func unionBytes(a, b []byte) []byte {
	seen := make(map[byte]bool)
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]byte, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func unionMasks(a, b []Mask) []Mask {
	seen := make(map[Mask]bool)
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]Mask, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Difference returns a DEVA accepting L(d1) ∖ L(d2) restricted to
// well-formed extended words — as spanners, exactly the tuple-wise
// difference ⟦d1⟧(D) ∖ ⟦d2⟧(D) for every document, because well-formed
// extended words are in bijection with (document, tuple) pairs. This
// realizes the classical closure of regular spanners under difference.
// Both automata must share the variable ordering (same MaskIndex layout).
func Difference(d1, d2 *DEVA) *DEVA {
	l1, m1 := d1.AlphabetAndMasks()
	l2, m2 := d2.AlphabetAndMasks()
	letters := unionBytes(l1, l2)
	masks := unionMasks(m1, m2)

	out := &DEVA{Index: d1.Index}
	type pair struct{ a, b int } // b == -1 encodes the dead state of d2
	ids := map[pair]int{}
	var order []pair
	intern := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		id := out.addState()
		ids[p] = id
		order = append(order, p)
		if d1.Final[p.a] && (p.b < 0 || !d2.Final[p.b]) {
			out.Final[id] = true
		}
		return id
	}
	intern(pair{d1.Start, d2.Start})
	for i := 0; i < len(order); i++ {
		p := order[i]
		src := ids[p]
		for _, c := range letters {
			a := d1.Step(p.a, c)
			if a < 0 {
				continue // not in L(d1): irrelevant for the difference
			}
			b := -1
			if p.b >= 0 {
				b = d2.Step(p.b, c)
			}
			if out.Letters[src] == nil {
				out.Letters[src] = map[byte]int{}
			}
			out.Letters[src][c] = intern(pair{a, b})
		}
		for _, m := range masks {
			a := d1.StepMask(p.a, m)
			if a < 0 {
				continue
			}
			b := -1
			if p.b >= 0 {
				b = d2.StepMask(p.b, m)
			}
			if out.Masks[src] == nil {
				out.Masks[src] = map[Mask]int{}
			}
			out.Masks[src][m] = intern(pair{a, b})
		}
	}
	return out
}
