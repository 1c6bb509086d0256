// Package automata provides the automata-theoretic machinery underlying
// regular document spanners: nondeterministic finite automata over the
// extended alphabet Σ ∪ {x▷, ◁x : x ∈ X} (the representation of
// subword-marked languages, Section 2.1 of Schmid and Schweikardt's
// PODS 2022 survey), their determinization into extended deterministic
// vset-automata reading marker *sets* (Section 2.2, Option 2), products for
// the spanner algebra, language-level decision procedures, and the Boolean
// state-transition matrices used for evaluation over SLP-compressed
// documents (Section 4.2).
package automata

import (
	"fmt"
	"sort"
	"sync"

	"docspanner/internal/refwords"
	"docspanner/internal/spans"
)

// Marker aliases the marker symbol type of package refwords.
type Marker = refwords.Marker

// NFA is a nondeterministic finite automaton over the extended alphabet:
// its transitions read alphabet letters, single marker symbols, or ε.
// An NFA whose accepted words are valid subword-marked words represents a
// regular document spanner (a vset-automaton in the survey's terminology);
// an NFA without marker transitions is a plain automaton over Σ.
type NFA struct {
	Vars    spans.VarSet
	Start   int
	Final   []bool
	Eps     [][]int
	Letters []map[byte][]int
	Markers []map[Marker][]int
	// Refs are reference transitions reading the symbol x of a ref-word
	// (Section 3.1): a refl-spanner automaton is an NFA with Refs. All
	// regular-spanner algorithms require Refs to be empty; HasRefs tells
	// them apart.
	Refs []map[spans.Var][]int

	// What evaluation derives from a finished automaton lives and dies
	// with it: the determinization (DeterminizeCached) and the Boolean
	// matrix compilation (CompiledMatrices), each built once.
	devaOnce sync.Once
	deva     *DEVA
	matsOnce sync.Once
	mats     *CompiledNFA
	matsErr  error
}

// NewNFA returns an empty automaton over the given variables with a single
// (non-final) start state 0.
func NewNFA(vars spans.VarSet) *NFA {
	n := &NFA{Vars: vars}
	n.AddState()
	return n
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.Final) }

// AddState adds a fresh non-final state and returns its index.
func (n *NFA) AddState() int {
	id := len(n.Final)
	n.Final = append(n.Final, false)
	n.Eps = append(n.Eps, nil)
	n.Letters = append(n.Letters, nil)
	n.Markers = append(n.Markers, nil)
	n.Refs = append(n.Refs, nil)
	return id
}

// SetFinal marks state q as accepting.
func (n *NFA) SetFinal(q int) { n.Final[q] = true }

// AddEps adds an ε-transition p → q.
func (n *NFA) AddEps(p, q int) { n.Eps[p] = append(n.Eps[p], q) }

// AddLetter adds a transition p → q reading letter b.
func (n *NFA) AddLetter(p int, b byte, q int) {
	if n.Letters[p] == nil {
		n.Letters[p] = make(map[byte][]int)
	}
	n.Letters[p][b] = append(n.Letters[p][b], q)
}

// AddMarker adds a transition p → q reading marker m.
func (n *NFA) AddMarker(p int, m Marker, q int) {
	if n.Markers[p] == nil {
		n.Markers[p] = make(map[Marker][]int)
	}
	n.Markers[p][m] = append(n.Markers[p][m], q)
}

// AddRef adds a transition p → q reading the reference symbol of v.
func (n *NFA) AddRef(p int, v spans.Var, q int) {
	if n.Refs[p] == nil {
		n.Refs[p] = make(map[spans.Var][]int)
	}
	n.Refs[p][v] = append(n.Refs[p][v], q)
}

// HasRefs reports whether any reference transition exists, i.e. whether
// the automaton represents a refl-spanner rather than a regular spanner.
func (n *NFA) HasRefs() bool {
	for _, tr := range n.Refs {
		if len(tr) > 0 {
			return true
		}
	}
	return false
}

// EpsClosure expands the state set to its ε-closure. The input slice is
// treated as a set; the result is sorted and duplicate-free.
func (n *NFA) EpsClosure(states []int) []int {
	seen := make(map[int]bool, len(states))
	stack := append([]int(nil), states...)
	for _, q := range states {
		seen[q] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range n.Eps[q] {
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	return sortedKeys(seen)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for q := range m {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// Alphabet returns the set of letters that occur on transitions.
func (n *NFA) Alphabet() []byte {
	var seen [256]bool
	cnt := 0
	for _, tr := range n.Letters {
		for b := range tr {
			if !seen[b] {
				seen[b] = true
				cnt++
			}
		}
	}
	out := make([]byte, 0, cnt)
	for b := 0; b < 256; b++ {
		if seen[b] {
			out = append(out, byte(b))
		}
	}
	return out
}

// reachable returns the states reachable from start via any transition.
func (n *NFA) reachable() []bool {
	seen := make([]bool, n.NumStates())
	stack := []int{n.Start}
	seen[n.Start] = true
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
	return seen
}

// coReachable returns the states from which a final state is reachable.
func (n *NFA) coReachable() []bool {
	// Build reverse adjacency.
	rev := make([][]int, n.NumStates())
	addRev := func(p, q int) { rev[q] = append(rev[q], p) }
	for p := range n.Final {
		for _, q := range n.Eps[p] {
			addRev(p, q)
		}
		for _, qs := range n.Letters[p] {
			for _, q := range qs {
				addRev(p, q)
			}
		}
		for _, qs := range n.Markers[p] {
			for _, q := range qs {
				addRev(p, q)
			}
		}
		for _, qs := range n.Refs[p] {
			for _, q := range qs {
				addRev(p, q)
			}
		}
	}
	seen := make([]bool, n.NumStates())
	var stack []int
	for q, f := range n.Final {
		if f {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Trim returns an equivalent automaton containing only useful states
// (reachable and co-reachable). If the language is empty, the result is a
// single-state automaton with no transitions.
func (n *NFA) Trim() *NFA {
	reach, co := n.reachable(), n.coReachable()
	remap := make([]int, n.NumStates())
	out := NewNFA(n.Vars)
	// State 0 of out corresponds to n.Start.
	useful := func(q int) bool { return reach[q] && co[q] }
	if !useful(n.Start) {
		return out // empty language
	}
	remap[n.Start] = 0
	for q := range n.Final {
		if q != n.Start && useful(q) {
			remap[q] = out.AddState()
		}
	}
	for q := range n.Final {
		if !useful(q) {
			continue
		}
		if n.Final[q] {
			out.SetFinal(remap[q])
		}
		for _, r := range n.Eps[q] {
			if useful(r) {
				out.AddEps(remap[q], remap[r])
			}
		}
		for b, rs := range n.Letters[q] {
			for _, r := range rs {
				if useful(r) {
					out.AddLetter(remap[q], b, remap[r])
				}
			}
		}
		for m, rs := range n.Markers[q] {
			for _, r := range rs {
				if useful(r) {
					out.AddMarker(remap[q], m, remap[r])
				}
			}
		}
		for v, rs := range n.Refs[q] {
			for _, r := range rs {
				if useful(r) {
					out.AddRef(remap[q], v, remap[r])
				}
			}
		}
	}
	return out
}

// DeadStates reports the automaton's useless states: unreachable lists the
// states not reachable from the start state, nonCoaccessible the reachable
// states from which no final state can be reached. The two lists are
// disjoint (a state unreachable AND non-coaccessible is reported only as
// unreachable), sorted, and together are exactly the states Trim removes.
func (n *NFA) DeadStates() (unreachable, nonCoaccessible []int) {
	reach, co := n.reachable(), n.coReachable()
	for q := range n.Final {
		switch {
		case !reach[q]:
			unreachable = append(unreachable, q)
		case !co[q]:
			nonCoaccessible = append(nonCoaccessible, q)
		}
	}
	return unreachable, nonCoaccessible
}

// Empty reports whether the automaton accepts no word at all.
func (n *NFA) Empty() bool {
	reach := n.reachable()
	for q, f := range n.Final {
		if f && reach[q] {
			return false
		}
	}
	return true
}

// ShortestWitness returns a shortest accepted word (as a refwords.Word),
// or nil if the language is empty. Useful for Satisfiability witnesses.
func (n *NFA) ShortestWitness() refwords.Word {
	type pred struct {
		state int
		item  refwords.Item
		eps   bool
	}
	prev := make([]pred, n.NumStates())
	visited := make([]bool, n.NumStates())
	queue := []int{n.Start}
	visited[n.Start] = true
	prev[n.Start] = pred{state: -1}
	goal := -1
	for len(queue) > 0 && goal < 0 {
		q := queue[0]
		queue = queue[1:]
		if n.Final[q] {
			goal = q
			break
		}
		visit := func(r int, it refwords.Item, eps bool) {
			if !visited[r] {
				visited[r] = true
				prev[r] = pred{q, it, eps}
				queue = append(queue, r)
			}
		}
		for _, r := range n.Eps[q] {
			visit(r, refwords.Item{}, true)
		}
		for m, rs := range n.Markers[q] {
			for _, r := range rs {
				if m.Close {
					visit(r, refwords.CloseM(m.Var), false)
				} else {
					visit(r, refwords.Open(m.Var), false)
				}
			}
		}
		for b, rs := range n.Letters[q] {
			for _, r := range rs {
				visit(r, refwords.Letter(b), false)
			}
		}
		for v, rs := range n.Refs[q] {
			for _, r := range rs {
				visit(r, refwords.Ref(v), false)
			}
		}
	}
	if goal < 0 {
		return nil
	}
	var rev refwords.Word
	for q := goal; prev[q].state >= 0; q = prev[q].state {
		if !prev[q].eps {
			rev = append(rev, prev[q].item)
		}
	}
	w := make(refwords.Word, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		w = append(w, rev[i])
	}
	return w
}

// Validate checks that the automaton is a well-formed vset-automaton:
// on every path from the start to a final state, each marker occurs at
// most once, opens precede closes, and (when functional is true) every
// variable's markers occur exactly once. The check is semantic — it
// inspects reachability, not syntax — and runs in polynomial time.
func (n *NFA) Validate(functional bool) error {
	trimmed := n.Trim()
	if trimmed.Empty() {
		return nil
	}
	// For each variable, run a 3-state monitor (unseen/open/closed) in
	// product with the automaton; an error is a reachable violation.
	for _, v := range n.Vars {
		if err := trimmed.validateVar(v, functional); err != nil {
			return err
		}
	}
	return nil
}

func (n *NFA) validateVar(v spans.Var, functional bool) error {
	const (
		unseen = 0
		opened = 1
		closed = 2
	)
	type cfg struct {
		q, phase int
	}
	seen := make(map[cfg]bool)
	stack := []cfg{{n.Start, unseen}}
	seen[stack[0]] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Final[c.q] {
			if functional && c.phase != closed {
				return fmt.Errorf("automata: variable %s not assigned on some accepting path", v)
			}
			if c.phase == opened {
				return fmt.Errorf("automata: variable %s opened but never closed on some accepting path", v)
			}
		}
		push := func(q, phase int) {
			nc := cfg{q, phase}
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
		for _, rs := range n.Refs[c.q] {
			for _, r := range rs {
				push(r, c.phase)
			}
		}
		for m, rs := range n.Markers[c.q] {
			next := c.phase
			if m.Var == v {
				switch {
				case !m.Close && c.phase == unseen:
					next = opened
				case m.Close && c.phase == opened:
					next = closed
				default:
					// Re-opening or closing out of order: only an error if
					// this configuration can still reach acceptance; since
					// the automaton is trimmed, every state can.
					return fmt.Errorf("automata: marker %v occurs out of order or repeatedly", m)
				}
			}
			for _, r := range rs {
				push(r, next)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the automaton.
func (n *NFA) Clone() *NFA {
	out := &NFA{
		Vars:    append(spans.VarSet(nil), n.Vars...),
		Start:   n.Start,
		Final:   append([]bool(nil), n.Final...),
		Eps:     make([][]int, n.NumStates()),
		Letters: make([]map[byte][]int, n.NumStates()),
		Markers: make([]map[Marker][]int, n.NumStates()),
		Refs:    make([]map[spans.Var][]int, n.NumStates()),
	}
	for q := range n.Final {
		out.Eps[q] = append([]int(nil), n.Eps[q]...)
		if n.Letters[q] != nil {
			out.Letters[q] = make(map[byte][]int, len(n.Letters[q]))
			for b, rs := range n.Letters[q] {
				out.Letters[q][b] = append([]int(nil), rs...)
			}
		}
		if n.Markers[q] != nil {
			out.Markers[q] = make(map[Marker][]int, len(n.Markers[q]))
			for m, rs := range n.Markers[q] {
				out.Markers[q][m] = append([]int(nil), rs...)
			}
		}
		if n.Refs[q] != nil {
			out.Refs[q] = make(map[spans.Var][]int, len(n.Refs[q]))
			for v, rs := range n.Refs[q] {
				out.Refs[q][v] = append([]int(nil), rs...)
			}
		}
	}
	return out
}

// CountStates and CountTransitions report the automaton size (|M|).
func (n *NFA) CountTransitions() int {
	total := 0
	for q := range n.Final {
		total += len(n.Eps[q])
		for _, rs := range n.Letters[q] {
			total += len(rs)
		}
		for _, rs := range n.Markers[q] {
			total += len(rs)
		}
		for _, rs := range n.Refs[q] {
			total += len(rs)
		}
	}
	return total
}
