package algebra

// Logical rewrite passes over the plan IR. Every pass preserves the
// plan's relation on every document under the semantics it is invoked
// for; passes that are only sound under extra conditions (functional
// totality, always-bound variables) check those conditions with the
// static analyses of package vset before rewriting. The soundness
// arguments are subtle because the two result semantics differ in what
// a join or a one-variable selection means on partial tuples — each
// guard below states the exact condition it enforces.

import (
	"fmt"

	"docspanner/internal/automata"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// FusePolicy bounds and configures the automaton-building rewrites (the
// executable core-simplification lemma) and carries the semantics flag
// the soundness guards depend on.
type FusePolicy struct {
	// Schemaless selects the result semantics the plan will be evaluated
	// under. Several guards differ between the two semantics.
	Schemaless bool
	// MaxStates caps the size of any automaton a fusion step may build;
	// larger fusions are skipped (the cost model's state-count budget).
	// Values < 1 default to 4096.
	MaxStates int
	// MaxNormStates caps the inputs to the Normalize (determinizing)
	// step that join fusion and union dedup need; values < 1 default
	// to 128. Normalization is worst-case exponential, so this gate is
	// about planning time, not correctness.
	MaxNormStates int
}

func (pol FusePolicy) maxStates() int {
	if pol.MaxStates > 0 {
		return pol.MaxStates
	}
	return 4096
}

func (pol FusePolicy) maxNormStates() int {
	if pol.MaxNormStates > 0 {
		return pol.MaxNormStates
	}
	return 128
}

// BoundCache memoizes vset.AlwaysBound per (automaton, variable) within
// one planning run.
type BoundCache map[*automata.NFA]map[spans.Var]bool

// NewBoundCache returns an empty cache for one planning run.
func NewBoundCache() BoundCache { return BoundCache{} }

// Bound reports (and memoizes) vset.AlwaysBound(a, v).
func (bc BoundCache) Bound(a *automata.NFA, v spans.Var) bool {
	m := bc[a]
	if m == nil {
		m = make(map[spans.Var]bool)
		bc[a] = m
	}
	b, ok := m[v]
	if !ok {
		b = vset.AlwaysBound(a, v)
		m[v] = b
	}
	return b
}

// AllBound reports whether every variable of vars is always bound in a.
func (bc BoundCache) AllBound(a *automata.NFA, vars spans.VarSet) bool {
	for _, v := range vars {
		if !bc.Bound(a, v) {
			return false
		}
	}
	return true
}

// PushDownProjections pushes projections toward the leaves: π∘π merges,
// π distributes over ∪, π over ⋈ keeps the shared variables on each
// input (classical projection pushdown, sound under both semantics
// because compatibility only constrains variables present in both input
// schemas), and π over ς= retains the selected variables. The pass
// rebuilds the plan so that every node's schema is the smallest the
// requested output permits.
func PushDownProjections(p *Plan) *Plan { return pushProj(p, nil, false) }

// pushProj returns a plan equivalent to π_want(p) when have is set
// (with schema exactly p.Vars() ∩ want), or p with its subtree
// optimized when not.
func pushProj(p *Plan, want spans.VarSet, have bool) *Plan {
	switch p.Kind {
	case PScan, PExtScan:
		return wrapProject(p, want, have)

	case PEmpty:
		if have {
			p.Schema = p.Schema.Intersect(want)
		}
		return p

	case PUnion:
		for i, c := range p.Children {
			p.Children[i] = pushProj(c, want, have)
		}
		return p

	case PJoin:
		if !have {
			for i, c := range p.Children {
				p.Children[i] = pushProj(c, nil, false)
			}
			return p
		}
		// Keep every variable shared between two inputs: compatibility
		// of the natural join is decided on those, so dropping them
		// early would change the result; everything else not wanted
		// above can go.
		childWant := want.Union(sharedVars(p.Children))
		narrowed := false
		for i, c := range p.Children {
			if len(c.Vars().Minus(childWant)) > 0 {
				narrowed = true
			}
			p.Children[i] = pushProj(c, childWant, true)
		}
		if narrowed {
			p.Note(fmt.Sprintf("pushdown: π%v pushed below ⋈ (join variables retained)", want))
		}
		return wrapProject(p, want, true)

	case PProject:
		nw := p.Keep
		if have {
			nw = nw.Intersect(want)
		}
		return pushProj(p.Children[0], nw, true)

	case PSelect:
		if !have {
			p.Children[0] = pushProj(p.Children[0], nil, false)
			return p
		}
		cw := want.Union(p.Z)
		if len(p.Children[0].Vars().Minus(cw)) > 0 {
			p.Note(fmt.Sprintf("pushdown: π%v pushed below ς= (selected variables retained)", want))
		}
		p.Children[0] = pushProj(p.Children[0], cw, true)
		return wrapProject(p, want, true)

	case PFuse:
		// Fusion renames a whole class of columns; treat it as a
		// barrier and keep the projection above it.
		p.Children[0] = pushProj(p.Children[0], nil, false)
		return wrapProject(p, want, true)
	}
	return p
}

// wrapProject places π_want above p when p's schema exceeds want.
func wrapProject(p *Plan, want spans.VarSet, have bool) *Plan {
	if !have {
		return p
	}
	vars := p.Vars()
	if len(vars.Minus(want)) == 0 {
		return p
	}
	np := &Plan{Kind: PProject, Children: []*Plan{p}, Keep: want.Intersect(vars), Path: p.Path}
	np.Note("pushdown: projection materialized here")
	return np
}

// sharedVars returns the union of all pairwise schema intersections.
func sharedVars(children []*Plan) spans.VarSet {
	var out spans.VarSet
	for i := 0; i < len(children); i++ {
		vi := children[i].Vars()
		for j := i + 1; j < len(children); j++ {
			out = out.Union(vi.Intersect(children[j].Vars()))
		}
	}
	return out
}

// PushDownSelections sinks string-equality selections toward the
// leaves: ς= distributes over ∪, swaps with π when the selected
// variables survive the projection, and descends into the unique join
// input that binds all selected variables (sound because the other
// inputs then never assign them, so the joined tuples' selected columns
// come from that input alone).
func PushDownSelections(p *Plan) *Plan {
	for i, c := range p.Children {
		p.Children[i] = PushDownSelections(c)
	}
	if p.Kind != PSelect {
		return p
	}
	return sinkSelect(p)
}

func sinkSelect(s *Plan) *Plan {
	child := s.Children[0]
	switch child.Kind {
	case PUnion:
		for i, c := range child.Children {
			ns := &Plan{Kind: PSelect, Z: s.Z, Children: []*Plan{c}, Path: s.Path, Rewrites: append([]string(nil), s.Rewrites...)}
			ns.Note(fmt.Sprintf("pushdown: ς=%v distributed over union", s.Z))
			child.Children[i] = sinkSelect(ns)
		}
		return child

	case PProject:
		if len(s.Z.Minus(child.Keep)) == 0 {
			s.Children[0] = child.Children[0]
			s.Note(fmt.Sprintf("pushdown: ς=%v moved below π%v", s.Z, child.Keep))
			child.Children[0] = sinkSelect(s)
			return child
		}

	case PJoin:
		owner := -1
		for i, c := range child.Children {
			if len(s.Z.Intersect(c.Vars())) == 0 {
				continue
			}
			if owner >= 0 {
				return s // selected variables span several inputs
			}
			owner = i
		}
		if owner >= 0 && len(s.Z.Minus(child.Children[owner].Vars())) == 0 {
			s.Children[0] = child.Children[owner]
			s.Note(fmt.Sprintf("pushdown: ς=%v pushed into join input", s.Z))
			child.Children[owner] = sinkSelect(s)
			return child
		}
	}
	return s
}

// PruneEmpty replaces provably empty subtrees by PEmpty and propagates
// emptiness upward (an empty union branch disappears, an empty join
// input empties the join, ...). Sound under both semantics: an empty
// scan language yields the empty relation either way.
func PruneEmpty(p *Plan) *Plan {
	for i, c := range p.Children {
		p.Children[i] = PruneEmpty(c)
	}
	switch p.Kind {
	case PScan:
		if p.Auto.Empty() {
			return emptyNode(p, "prune: scan language is empty (SP001)")
		}

	case PUnion:
		live := p.Children[:0]
		dropped := 0
		for _, c := range p.Children {
			if c.Kind == PEmpty {
				dropped++
			} else {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return emptyNode(p, "prune: every union branch is provably empty")
		}
		if dropped > 0 && len(live) == 1 {
			live[0].Note("prune: empty sibling union branch dropped")
			return live[0]
		}
		if dropped > 0 {
			p.Note(fmt.Sprintf("prune: %d empty union branch(es) dropped", dropped))
		}
		p.Children = live

	case PJoin:
		for _, c := range p.Children {
			if c.Kind == PEmpty {
				return emptyNode(p, "prune: join input is provably empty (SP003)")
			}
		}

	case PProject, PSelect, PFuse:
		if p.Children[0].Kind == PEmpty {
			return emptyNode(p, "prune: operand is provably empty")
		}
	}
	return p
}

func emptyNode(p *Plan, msg string) *Plan {
	np := &Plan{Kind: PEmpty, Schema: p.Vars(), Path: p.Path, Rewrites: append(append([]string(nil), p.Rewrites...), msg)}
	return np
}

// DedupUnions drops a union branch that provably duplicates its sibling
// (spanlint's SP008). Structurally identical branches (same automata by
// pointer, same shape) are equal under any semantics; scan branches are
// additionally compared by spanner equivalence, which requires equal
// variable sets — two automata with different schemas can align to the
// same ref-word language yet differ functionally.
func DedupUnions(p *Plan, pol FusePolicy) *Plan {
	for i, c := range p.Children {
		p.Children[i] = DedupUnions(c, pol)
	}
	if p.Kind != PUnion || len(p.Children) != 2 {
		return p
	}
	l, r := p.Children[0], p.Children[1]
	if l.Fingerprint() == r.Fingerprint() {
		l.Note("dedup-union: branches are structurally identical, right branch dropped (SP008)")
		return l
	}
	if l.Kind == PScan && r.Kind == PScan && !l.Auto.HasRefs() && !r.Auto.HasRefs() &&
		l.Auto.Vars.Equal(r.Auto.Vars) &&
		l.Auto.NumStates() <= pol.maxNormStates() && r.Auto.NumStates() <= pol.maxNormStates() &&
		vset.Equivalent(l.Auto, r.Auto) {
		l.Note("dedup-union: branches extract the same relation on every document, right branch dropped (SP008)")
		return l
	}
	return p
}

// DropNoopSelects removes string-equality selections that are provably
// no-ops and replaces provably empty ones by PEmpty (spanlint's SP005).
// The no-op drops need the selected variables to be assigned in every
// tuple: guaranteed for a functional-semantics scan (per-primitive
// totality), and established by vset.AlwaysBound under the schemaless
// semantics, where a one-variable selection is NOT vacuous (it filters
// tuples that leave the variable unassigned).
func DropNoopSelects(p *Plan, pol FusePolicy, bc BoundCache) *Plan {
	for i, c := range p.Children {
		p.Children[i] = DropNoopSelects(c, pol, bc)
	}
	if p.Kind != PSelect {
		return p
	}
	c := p.Children[0]
	if len(p.Z) == 0 {
		c.Note("simplify: empty selection class dropped")
		return c
	}
	if unbound := p.Z.Minus(c.Vars()); len(unbound) > 0 {
		return emptyNode(p, fmt.Sprintf("prune: selection on never-bound %v is always empty (SP005)", unbound))
	}
	if c.Kind != PScan || c.Auto.HasRefs() {
		return p
	}
	if !vset.JointlyBindable(c.Auto, p.Z) {
		return emptyNode(p, fmt.Sprintf("prune: %v never jointly bound, selection always empty (SP005)", p.Z))
	}
	assigned := !pol.Schemaless // functional scans filter for totality already
	if !assigned {
		assigned = bc.AllBound(c.Auto, p.Z)
	}
	if !assigned {
		return p
	}
	if len(p.Z) == 1 {
		c.Note(fmt.Sprintf("simplify: one-variable selection ς=%v dropped (always assigned) (SP005)", p.Z))
		return c
	}
	if allSameSpan(c.Auto, p.Z) {
		c.Note(fmt.Sprintf("simplify: ς=%v dropped — variables provably extract the same span (SP005)", p.Z))
		return c
	}
	return p
}

func allSameSpan(a *automata.NFA, z spans.VarSet) bool {
	for i := 0; i < len(z); i++ {
		for j := i + 1; j < len(z); j++ {
			if !vset.AlwaysSameSpan(a, z[i], z[j]) {
				return false
			}
		}
	}
	return true
}

// FuseRegular is the executable core-simplification pass: bottom-up, it
// collapses ∪/⋈/π over scan nodes into single vset-automata using the
// closure constructions of package automata, bounded by the policy's
// state budget. Guards per operator and semantics:
//
//   - union, schemaless: always sound (the ref-word language of the
//     union automaton is the union of the languages);
//   - union, functional: requires equal variable sets — otherwise the
//     per-branch totality filters differ from the fused one;
//   - join, functional: sound after Normalize (totality forces shared
//     variables to be bound on both sides, which the synchronized
//     product captures exactly);
//   - join, schemaless: requires every shared variable to be
//     always-bound on both sides — the synchronized product cannot
//     produce the partial-tuple joins where one side leaves a shared
//     variable unassigned;
//   - projection, schemaless: always sound (marker erasure);
//   - projection, functional: requires every automaton variable to be
//     always-bound, because erasing a sometimes-unbound variable's
//     markers would admit runs the per-primitive totality filter
//     excludes.
func FuseRegular(p *Plan, pol FusePolicy) *Plan {
	return fuseNode(p, pol, NewBoundCache())
}

func fuseNode(p *Plan, pol FusePolicy, bc BoundCache) *Plan {
	for i, c := range p.Children {
		p.Children[i] = fuseNode(c, pol, bc)
	}
	switch p.Kind {
	case PUnion:
		if len(p.Children) != 2 {
			return p
		}
		l, r := p.Children[0], p.Children[1]
		if !scannable(l) || !scannable(r) {
			return p
		}
		if !pol.Schemaless && !l.Auto.Vars.Equal(r.Auto.Vars) {
			return p
		}
		if l.Auto.NumStates()+r.Auto.NumStates()+1 > pol.maxStates() {
			return p
		}
		return fusedScan(p, automata.Union(l.Auto, r.Auto), "core-simplify: ∪ fused into one automaton", l, r)

	case PJoin:
		if len(p.Children) != 2 {
			return p
		}
		l, r := p.Children[0], p.Children[1]
		if !scannable(l) || !scannable(r) {
			return p
		}
		la, ra := l.Auto, r.Auto
		shared := la.Vars.Intersect(ra.Vars)
		if len(shared) > 0 {
			if pol.Schemaless && !(bc.AllBound(la, shared) && bc.AllBound(ra, shared)) {
				return p
			}
			if la.NumStates() > pol.maxNormStates() || ra.NumStates() > pol.maxNormStates() {
				return p
			}
			la, ra = automata.Normalize(la), automata.Normalize(ra)
		}
		if la.NumStates()*ra.NumStates() > pol.maxStates() {
			return p
		}
		fused := automata.Join(la, ra)
		if fused.NumStates() > pol.maxStates() {
			return p
		}
		return fusedScan(p, fused, "core-simplify: ⋈ fused into one automaton", l, r)

	case PProject:
		c := p.Children[0]
		if !scannable(c) {
			return p
		}
		if !pol.Schemaless && !bc.AllBound(c.Auto, c.Auto.Vars) {
			return p
		}
		return fusedScan(p, automata.Project(c.Auto, p.Keep), fmt.Sprintf("core-simplify: π%v fused into the automaton", p.Keep), c)
	}
	return p
}

func scannable(p *Plan) bool { return p.Kind == PScan && !p.Auto.HasRefs() }

// fusedScan builds the scan node replacing p, carrying the children's
// rewrite provenance forward.
func fusedScan(p *Plan, a *automata.NFA, msg string, children ...*Plan) *Plan {
	a = a.Trim()
	np := &Plan{Kind: PScan, Auto: a, Path: p.Path, Rewrites: append([]string(nil), p.Rewrites...)}
	for _, c := range children {
		np.Rewrites = append(np.Rewrites, c.Rewrites...)
	}
	np.Note(fmt.Sprintf("%s (%d states)", msg, a.NumStates()))
	return np
}
