// Package vset interprets NFAs over the extended alphabet as document
// spanners (vset-automata) and implements their evaluation and static
// analysis: the problems ModelChecking, NonEmptiness, Satisfiability,
// Hierarchicality, Containment, and Equivalence of Section 2.4 of Schmid
// and Schweikardt's PODS 2022 survey. For regular spanners all of these
// are decidable with the complexities the survey reports: the evaluation
// problems are polynomial in the document, the static analysis problems
// are polynomial to exponential in the automaton (query complexity only).
package vset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"docspanner/internal/automata"
	"docspanner/internal/refwords"
	"docspanner/internal/spans"
)

// Semantics selects between the classical total-function semantics of
// Fagin et al. and the schemaless (partial tuple) semantics of Maturana,
// Riveros, and Vrgoč (Section 2.2).
type Semantics int

const (
	// Functional requires every variable to be assigned in every tuple.
	Functional Semantics = iota
	// Schemaless permits unassigned variables (t(x) = ⊥).
	Schemaless
)

// Eval materializes ⟦M⟧(doc) through Search. It is the reference
// ("naive") evaluation: correct for every valid vset-automaton, polynomial
// in |doc| for a fixed automaton. The enumeration package provides the
// linear-preprocessing/constant-delay alternative of Section 2.5.
func Eval(n *automata.NFA, doc []byte, sem Semantics) *spans.Relation {
	if n.HasRefs() {
		panic("vset: Eval on an automaton with reference transitions; use package refl")
	}
	out := spans.NewRelation()
	Search(n, doc, sem, nil, nil, func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}

// FactorEq answers the factor-equality queries doc[i:i+l] == doc[j:j+l]
// (0-based offsets) that reference transitions ask.
type FactorEq interface {
	Eq(i, j, l int) bool
}

// Search emits the tuples of ⟦M⟧(doc), each once, by a depth-first search
// over the configurations (state, position, assignment) of the automaton
// on doc. Letters advance the position, a marker sets its begin or end
// mark to the current boundary, and a reference to x — for the
// refl-spanners of Section 3, which pass their string structure as eq (nil
// for ref-free automata) — reads the factor equal to x's content, checked
// by one eq query. An accepting configuration at |doc| moves to a sink
// configuration holding only its assignment: the visited set admits that
// one once, so a tuple reached by several runs is emitted once. poll (nil
// for none) is called once every spans.PollEvery expanded configurations.
// Search returns whether it explored every configuration: false when poll
// or emit stopped it.
func Search(n *automata.NFA, doc []byte, sem Semantics, eq FactorEq, poll func() bool, emit func(spans.Tuple) bool) (complete bool) {
	if eq == nil && n.HasRefs() {
		panic("vset: Search on an automaton with reference transitions needs a factor-equality structure")
	}
	k := len(n.Vars)
	sink := int32(n.NumStates())
	end := int32(len(doc))
	cs := newConfigs(2 + 2*k)
	cur := make([]int32, cs.w) // the configuration being expanded
	next := make([]int32, cs.w)
	step := func(r int, pos int32) {
		copy(next, cur)
		next[0], next[1] = int32(r), pos
		cs.visit(next)
	}
	cur[0] = int32(n.Start)
	cs.visit(cur)
	for pops := 1; len(cs.stack) > 0; pops++ {
		if pops%spans.PollEvery == 0 && poll != nil && !poll() {
			return false
		}
		cs.pop(cur)
		q, pos, marks := cur[0], cur[1], cur[2:]
		if q == sink {
			if !emit(tupleOf(n.Vars, marks)) {
				return false
			}
			continue
		}
		if pos == end && n.Final[q] && accepts(marks, sem) {
			step(int(sink), end)
		}
		for _, r := range n.Eps[q] {
			step(r, pos)
		}
		if pos < end {
			for _, r := range n.Letters[q][doc[pos]] {
				step(r, pos+1)
			}
		}
		for m, rs := range n.Markers[q] {
			i := 2 * n.Vars.Index(m.Var)
			if i < 0 {
				continue
			}
			if m.Close {
				if marks[i] == 0 || marks[i+1] != 0 {
					continue // close before open, or duplicate close
				}
				i++
			} else if marks[i] != 0 {
				continue // duplicate open
			}
			marks[i] = pos + 1
			for _, r := range rs {
				step(r, pos)
			}
			marks[i] = 0
		}
		for v, rs := range n.Refs[q] {
			i := 2 * n.Vars.Index(v)
			if i < 0 {
				continue
			}
			b, e := marks[i], marks[i+1]
			if e == 0 {
				continue // backward reference: the span must be closed
			}
			l := e - b
			if pos+l > end || !eq.Eq(int(b-1), int(pos), int(l)) {
				continue
			}
			for _, r := range rs {
				step(r, pos+l)
			}
		}
	}
	return true
}

// accepts reports whether an assignment at an accepting configuration
// makes a tuple: no span is left open, and under functional semantics
// every variable is assigned.
func accepts(marks []int32, sem Semantics) bool {
	for i := 0; i < len(marks); i += 2 {
		if (marks[i] == 0) != (marks[i+1] == 0) || (sem == Functional && marks[i] == 0) {
			return false
		}
	}
	return true
}

func tupleOf(vars spans.VarSet, marks []int32) spans.Tuple {
	t := make(spans.Tuple, len(vars))
	for i, v := range vars {
		if b := marks[2*i]; b != 0 {
			t[v] = spans.S(int(b), int(marks[2*i+1]))
		}
	}
	return t
}

// configs holds the configurations a search has reached: one slab of w
// int32s each (state, position, then the 2k begin/end marks as 1-based
// boundaries, 0 for unset), an open-addressing set over their indices,
// and the stack of those not yet expanded.
type configs struct {
	w     int
	slab  []int32
	slots []int32 // configuration index + 1; 0 is free
	stack []int32
}

func newConfigs(w int) *configs {
	return &configs{w: w, slots: make([]int32, 64)}
}

func (cs *configs) at(i int32) []int32 {
	return cs.slab[int(i)*cs.w : int(i+1)*cs.w]
}

// visit adds a copy of c to the stack unless c was reached before.
func (cs *configs) visit(c []int32) {
	mask := uint64(len(cs.slots) - 1)
	i := hashConfig(c) & mask
	for ; cs.slots[i] != 0; i = (i + 1) & mask {
		if slices.Equal(cs.at(cs.slots[i]-1), c) {
			return
		}
	}
	id := int32(len(cs.slab) / cs.w)
	cs.slab = append(cs.slab, c...)
	cs.slots[i] = id + 1
	cs.stack = append(cs.stack, id)
	if n := int(id) + 1; 2*n > len(cs.slots) {
		cs.slots = make([]int32, 2*len(cs.slots))
		mask = uint64(len(cs.slots) - 1)
		for j := int32(0); int(j) < n; j++ {
			i := hashConfig(cs.at(j)) & mask
			for cs.slots[i] != 0 {
				i = (i + 1) & mask
			}
			cs.slots[i] = j + 1
		}
	}
}

// pop copies the configuration on top of the stack into c and removes it.
func (cs *configs) pop(c []int32) {
	top := len(cs.stack) - 1
	copy(c, cs.at(cs.stack[top]))
	cs.stack = cs.stack[:top]
}

func hashConfig(c []int32) uint64 {
	var h uint64
	for _, x := range c {
		h = (bits.RotateLeft64(h, 5) ^ uint64(uint32(x))) * 0x517cc1b727220a95
	}
	// The multiplication leaves the low bits, which index the table, the
	// least mixed: fold the high half onto them.
	return h ^ h>>32
}

// AcceptsMarked decides whether the NFA accepts the subword-marked word
// given in extended (marker-set) form, simulating marker-order
// non-determinism at each boundary. It runs in O(|doc| · poly(|M|)) time —
// the ModelChecking routine for regular spanners.
func AcceptsMarked(n *automata.NFA, msw refwords.MarkerSetWord) bool {
	cur := n.EpsClosure([]int{n.Start})
	for i := 0; i <= len(msw.Doc); i++ {
		if len(msw.Sets[i]) > 0 {
			cur = boundaryStep(n, cur, msw.Sets[i])
			if len(cur) == 0 {
				return false
			}
		}
		if i < len(msw.Doc) {
			cur = letterStep(n, cur, msw.Doc[i])
			if len(cur) == 0 {
				return false
			}
		}
	}
	for _, q := range cur {
		if n.Final[q] {
			return true
		}
	}
	return false
}

// boundaryStep returns the ε-closed set of states reachable from cur by
// reading exactly the markers of set (in any order, ε interleaved).
func boundaryStep(n *automata.NFA, cur []int, set refwords.MarkerSet) []int {
	full := uint32(1)<<uint(len(set)) - 1
	bitOf := make(map[automata.Marker]uint32, len(set))
	for i, m := range set {
		bitOf[m] = 1 << uint(i)
	}
	type cfg struct {
		q    int
		used uint32
	}
	seen := make(map[cfg]bool)
	var stack []cfg
	for _, q := range cur {
		c := cfg{q, 0}
		seen[c] = true
		stack = append(stack, c)
	}
	var outSet map[int]bool
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.used == full {
			if outSet == nil {
				outSet = make(map[int]bool)
			}
			outSet[c.q] = true
		}
		push := func(nc cfg) {
			if !seen[nc] {
				seen[nc] = true
				stack = append(stack, nc)
			}
		}
		for _, r := range n.Eps[c.q] {
			push(cfg{r, c.used})
		}
		for m, rs := range n.Markers[c.q] {
			bit, ok := bitOf[m]
			if !ok || c.used&bit != 0 {
				continue
			}
			for _, r := range rs {
				push(cfg{r, c.used | bit})
			}
		}
	}
	if outSet == nil {
		return nil
	}
	out := make([]int, 0, len(outSet))
	for q := range outSet {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

func letterStep(n *automata.NFA, cur []int, b byte) []int {
	next := make(map[int]bool)
	for _, q := range cur {
		for _, r := range n.Letters[q][b] {
			next[r] = true
		}
	}
	if len(next) == 0 {
		return nil
	}
	out := make([]int, 0, len(next))
	for q := range next {
		out = append(out, q)
	}
	sort.Ints(out)
	return n.EpsClosure(out)
}

// ModelCheck decides t ∈ ⟦M⟧(doc) (the ModelChecking problem). For
// regular spanners this runs in time linear in |doc| (data complexity):
// the tuple is turned into an extended subword-marked word and membership
// is checked on the fly, handling the consecutive-marker-order issue of
// Section 2.2 by working with marker sets.
func ModelCheck(n *automata.NFA, doc []byte, t spans.Tuple, sem Semantics) (bool, error) {
	for v, s := range t {
		if !n.Vars.Contains(v) {
			return false, fmt.Errorf("vset: tuple assigns unknown variable %s", v)
		}
		if !s.In(len(doc)) {
			return false, fmt.Errorf("vset: span %v of %s out of range for document of length %d", s, v, len(doc))
		}
	}
	if sem == Functional && !t.TotalOn(n.Vars) {
		return false, nil
	}
	w := refwords.FromTuple(doc, t)
	return AcceptsMarked(n, w.ToMarkerSets()), nil
}

// NonEmpty decides ⟦M⟧(doc) ≠ ∅ (the NonEmptiness problem) by treating
// marker transitions as ε and checking plain NFA membership of doc —
// polynomial, as the survey describes for regular spanners.
func NonEmpty(n *automata.NFA, doc []byte) bool {
	if n.HasRefs() {
		panic("vset: NonEmpty on an automaton with reference transitions; use package refl")
	}
	cur := markerFreeClosure(n, []int{n.Start})
	for i := 0; i < len(doc); i++ {
		next := make(map[int]bool)
		for _, q := range cur {
			for _, r := range n.Letters[q][doc[i]] {
				next[r] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		lst := make([]int, 0, len(next))
		for q := range next {
			lst = append(lst, q)
		}
		sort.Ints(lst)
		cur = markerFreeClosure(n, lst)
	}
	for _, q := range cur {
		if n.Final[q] {
			return true
		}
	}
	return false
}

// markerFreeClosure closes a state set under ε and marker transitions.
func markerFreeClosure(n *automata.NFA, states []int) []int {
	seen := make(map[int]bool, len(states))
	stack := append([]int(nil), states...)
	for _, q := range states {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push := func(r int) {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
		for _, r := range n.Eps[q] {
			push(r)
		}
		for _, rs := range n.Markers[q] {
			for _, r := range rs {
				push(r)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// Satisfiable decides whether some document yields a non-empty result
// (the Satisfiability problem): NFA non-emptiness, polynomial time.
func Satisfiable(n *automata.NFA) bool {
	return !n.Empty()
}

// Witness returns a document witnessing satisfiability along with the
// extracted tuple of a shortest accepting run, or ok=false.
func Witness(n *automata.NFA) (doc []byte, t spans.Tuple, ok bool) {
	w := n.ShortestWitness()
	if w == nil {
		return nil, nil, false
	}
	return w.Erase(), w.SpanTuple(), true
}
