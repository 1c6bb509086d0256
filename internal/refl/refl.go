// Package refl implements the refl-spanners of Schmid and Schweikardt
// (ICDT 2021), surveyed in Section 3 of their PODS 2022 overview:
// spanners defined by regular ref-languages, in which string-equality is
// expressed by reference symbols x inside the regular language instead of
// by algebraic selections. Refl-spanners sit strictly between regular and
// core spanners: ModelChecking and Satisfiability stay tractable (the
// former in linear time with a rolling-hash string structure), while
// NonEmptiness is NP-hard, matching the survey's account (Section 3.3).
//
// Reference transitions are *backward* references: on every accepting
// path a reference to x fires only after ◁x, as in all examples of the
// survey and in classical regex backreference semantics.
package refl

import (
	"fmt"

	"docspanner/internal/automata"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// Spanner is a refl-spanner: an NFA over Σ ∪ markers ∪ references.
// Evaluation (Eval, Each, ModelCheck, NonEmpty) allocates its search
// state per call, so a shared Spanner is safe for concurrent use as long
// as NaiveCompare is set before the instance is shared.
type Spanner struct {
	A *automata.NFA
	// NaiveCompare disables the rolling-hash string structure and
	// compares referenced factors byte by byte — the quadratic baseline
	// of Section 3.3, kept as an ablation switch for the benchmarks.
	// Configure it before sharing the spanner across goroutines.
	NaiveCompare bool
}

// New validates and wraps a ref-automaton. It checks the marker structure
// (as for vset-automata), that every referenced variable is bound, and
// that references are backward (fire only after the variable's close
// marker on every path).
func New(a *automata.NFA) (*Spanner, error) {
	if err := a.Validate(false); err != nil {
		return nil, err
	}
	trimmed := a.Trim()
	// Collect referenced variables.
	refVars := map[spans.Var]bool{}
	for _, tr := range trimmed.Refs {
		for v := range tr {
			refVars[v] = true
		}
	}
	for v := range refVars {
		if !a.Vars.Contains(v) {
			return nil, fmt.Errorf("refl: reference to unknown variable %s", v)
		}
		if err := backwardOnly(trimmed, v); err != nil {
			return nil, err
		}
	}
	return &Spanner{A: a}, nil
}

// backwardOnly checks that on every path of the trimmed automaton, a
// reference to v fires only in the "closed" phase of v's markers.
func backwardOnly(n *automata.NFA, v spans.Var) error {
	const (
		unseen = 0
		opened = 1
		closed = 2
	)
	type cfg struct{ q, phase int }
	start := cfg{n.Start, unseen}
	seen := map[cfg]bool{start: true}
	stack := []cfg{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push := func(q, ph int) {
			nc := cfg{q, ph}
			if !seen[nc] {
				seen[nc] = true
				stack = append(stack, nc)
			}
		}
		for _, r := range n.Eps[c.q] {
			push(r, c.phase)
		}
		for _, rs := range n.Letters[c.q] {
			for _, r := range rs {
				push(r, c.phase)
			}
		}
		for m, rs := range n.Markers[c.q] {
			ph := c.phase
			if m.Var == v {
				if m.Close {
					ph = closed
				} else {
					ph = opened
				}
			}
			for _, r := range rs {
				push(r, ph)
			}
		}
		for rv, rs := range n.Refs[c.q] {
			if rv == v && c.phase != closed {
				return fmt.Errorf("refl: reference to %s before its span is closed (forward references unsupported)", v)
			}
			for _, r := range rs {
				push(r, c.phase)
			}
		}
	}
	return nil
}

// Vars returns the spanner's variable set.
func (s *Spanner) Vars() spans.VarSet { return s.A.Vars }

// Eval computes ⟦L⟧(doc) = { st(𝔡(w)) : w ∈ L, e(𝔡(w)) = doc }.
func (s *Spanner) Eval(doc []byte, functional bool) *spans.Relation {
	out := spans.NewRelation()
	s.Each(doc, functional, nil, func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}

// Each calls f for every result tuple on doc, each once, through the
// configuration search of vset.Search: a reference transition for x
// consumes the factor of doc equal to x's extracted content, verified in
// O(1) with the rolling-hash structure. NP-hard in general (the
// assignment guessing is the hardness source, Section 3.3); the search
// stops, reporting false, as soon as f returns false or poll (nil for
// none, called once every spans.PollEvery configurations) does.
func (s *Spanner) Each(doc []byte, functional bool, poll func() bool, f func(spans.Tuple) bool) bool {
	sem := vset.Schemaless
	if functional {
		sem = vset.Functional
	}
	return vset.Search(s.A, doc, sem, s.hasher(doc), poll, f)
}

// NonEmpty decides ⟦L⟧(doc) ≠ ∅ — NP-hard for refl-spanners (Section
// 3.3); implemented as the search with early exit.
func (s *Spanner) NonEmpty(doc []byte) bool {
	return !s.Each(doc, false, nil, func(spans.Tuple) bool { return false })
}

// hasher returns the factor-equality structure: rolling hashes, or the
// byte-by-byte baseline under NaiveCompare.
func (s *Spanner) hasher(doc []byte) vset.FactorEq {
	if s.NaiveCompare {
		return naiveEq(doc)
	}
	return NewHasher(doc)
}

// Satisfiable decides whether some document yields a non-empty result.
// For refl-spanners this reduces to NFA non-emptiness (Section 3.3),
// because every accepted ref-word dereferences to a witness document.
func (s *Spanner) Satisfiable() bool {
	return !s.A.Empty()
}

// Witness returns a witness document and tuple for satisfiability, by
// dereferencing a shortest accepted ref-word.
func (s *Spanner) Witness() (doc []byte, t spans.Tuple, ok bool) {
	w := s.A.ShortestWitness()
	if w == nil {
		return nil, nil, false
	}
	d, err := w.Deref()
	if err != nil {
		return nil, nil, false
	}
	return d.Erase(), d.SpanTuple(), true
}

// ModelCheck decides t ∈ ⟦L⟧(doc) in time linear in |doc| (data
// complexity), following Section 3.3: the pair (doc, t) fixes the content
// of every reference, so reference transitions are checked by O(1) factor
// comparisons on the rolling-hash structure, and the remaining search is
// a product of automaton states and document positions whose assignment
// component is FIXED — no guessing, hence tractable (in contrast to core
// spanners, where the same problem is NP-hard).
func (s *Spanner) ModelCheck(doc []byte, t spans.Tuple, functional bool) (bool, error) {
	n := s.A
	for v, sp := range t {
		if !n.Vars.Contains(v) {
			return false, fmt.Errorf("refl: tuple assigns unknown variable %s", v)
		}
		if !sp.In(len(doc)) {
			return false, fmt.Errorf("refl: span %v of %s out of range", sp, v)
		}
	}
	if functional && !t.TotalOn(n.Vars) {
		return false, nil
	}
	h := s.hasher(doc)
	k := len(n.Vars)

	// The assignment is fixed: marker transitions may fire only at the
	// positions dictated by t, references only where the factor matches.
	type cfg struct {
		q    int
		pos  int
		done uint64 // bitmask over marker indices already fired
	}
	bit := func(i int, close bool) uint64 {
		b := uint(2 * i)
		if close {
			b++
		}
		return 1 << b
	}
	var fullMask uint64
	markPos := make([]int, 2*k) // required firing position (1-based), 0 if unassigned
	for i, v := range n.Vars {
		if sp, ok := t[v]; ok {
			markPos[2*i] = sp.Begin
			markPos[2*i+1] = sp.End
			fullMask |= bit(i, false) | bit(i, true)
		}
	}

	start := cfg{n.Start, 0, 0}
	seen := map[cfg]bool{start: true}
	stack := []cfg{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.pos == len(doc) && c.done == fullMask && n.Final[c.q] {
			return true, nil
		}
		push := func(nc cfg) {
			if !seen[nc] {
				seen[nc] = true
				stack = append(stack, nc)
			}
		}
		for _, r := range n.Eps[c.q] {
			push(cfg{r, c.pos, c.done})
		}
		if c.pos < len(doc) {
			for _, r := range n.Letters[c.q][doc[c.pos]] {
				push(cfg{r, c.pos + 1, c.done})
			}
		}
		for m, rs := range n.Markers[c.q] {
			i := n.Vars.Index(m.Var)
			if i < 0 {
				continue
			}
			b := bit(i, m.Close)
			idx := 2 * i
			if m.Close {
				idx++
			}
			if markPos[idx] == 0 || c.done&b != 0 || markPos[idx] != c.pos+1 {
				continue
			}
			if m.Close && c.done&bit(i, false) == 0 {
				continue // open must fire first
			}
			for _, r := range rs {
				push(cfg{r, c.pos, c.done | b})
			}
		}
		for v, rs := range n.Refs[c.q] {
			sp, ok := t[v]
			if !ok {
				continue
			}
			i := n.Vars.Index(v)
			if c.done&bit(i, true) == 0 {
				continue // backward reference
			}
			l := sp.Len()
			// The referenced stretch must contain no marker firing
			// strictly inside it; markers at its end points are fine
			// because they fire at boundaries.
			if c.pos+l > len(doc) || !h.Eq(sp.Begin-1, c.pos, l) {
				continue
			}
			if markerStrictlyInside(markPos, c.pos, l) {
				continue
			}
			for _, r := range rs {
				push(cfg{r, c.pos + l, c.done})
			}
		}
	}
	return false, nil
}

// markerStrictlyInside reports whether any required marker position lies
// strictly inside the stretch (pos, pos+l) (0-based letter offsets; marker
// positions are 1-based boundaries).
func markerStrictlyInside(markPos []int, pos, l int) bool {
	lo, hi := pos+1, pos+l+1 // boundary range [lo, hi], interior (lo, hi)
	for _, p := range markPos {
		if p > lo && p < hi {
			return true
		}
	}
	return false
}

// ReferenceBounded reports whether the refl-spanner is reference-bounded
// (Section 3.2): there is a k bounding the number of occurrences of every
// reference in accepted ref-words. This holds iff no reference transition
// lies on a cycle of useful states.
func (s *Spanner) ReferenceBounded() bool {
	n := s.A.Trim()
	// A ref edge p→r is on a cycle iff r can reach p.
	for p := range n.Final {
		for _, rs := range n.Refs[p] {
			for _, r := range rs {
				if reaches(n, r, p) {
					return false
				}
			}
		}
	}
	return true
}

func reaches(n *automata.NFA, from, to int) bool {
	seen := make([]bool, n.NumStates())
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if q == to {
			return true
		}
		push := func(r int) {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
		for _, r := range n.Eps[q] {
			push(r)
		}
		for _, rs := range n.Letters[q] {
			for _, r := range rs {
				push(r)
			}
		}
		for _, rs := range n.Markers[q] {
			for _, r := range rs {
				push(r)
			}
		}
		for _, rs := range n.Refs[q] {
			for _, r := range rs {
				push(r)
			}
		}
	}
	return false
}
