package lint

import (
	"fmt"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/refl"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// Expr runs every applicable pass over a core-spanner algebra expression
// and returns the findings sorted by position and code. The schemaless
// flag names the result semantics the expression will be evaluated
// under, but no check depends on it: every Error finding is sound under
// both semantics (the flagged subexpression evaluates to the empty
// relation on every document), because a check whose soundness would
// differ — a join whose operands may leave a shared variable unassigned
// — is skipped under both.
func Expr(e algebra.Expr, schemaless bool) []Diagnostic {
	r := &runner{}
	ri := r.walk(e, "$", false, nil)
	r.checkHierarchical(ri)
	sortDiags(r.diags)
	return r.diags
}

// Spanner runs the passes that apply to a lone compiled regular spanner
// (no algebra context): satisfiability, dead states, hierarchicality. The
// src AST may be nil when the automaton was not compiled from a pattern.
func Spanner(n *automata.NFA, src regex.Node, schemaless bool) []Diagnostic {
	return Expr(algebra.Prim{A: n, Src: src}, schemaless)
}

// Refl runs the passes that remain decidable for refl-spanners:
// satisfiability (decidable for refl-spanners, in contrast to general core
// spanners — Section 3.3) and dead-state analysis on the ref-automaton.
func Refl(rs *refl.Spanner) []Diagnostic {
	r := &runner{}
	if !rs.Satisfiable() {
		r.report(CodeUnsatisfiable, Error, "$",
			"refl-spanner is unsatisfiable: it extracts nothing from any document",
			"check that every reference &x can repeat the content its binding requires")
	}
	r.checkDeadStates(rs.A, "$")
	sortDiags(r.diags)
	return r.diags
}

// runner accumulates diagnostics over one analysis. All state is per-call:
// a shared expression or spanner may be linted from several goroutines.
type runner struct {
	diags []Diagnostic
}

func (r *runner) report(code string, sev Severity, pos, msg, hint string) {
	r.diags = append(r.diags, Diagnostic{Code: code, Severity: sev, Pos: pos, Message: msg, Hint: hint})
}

// info is the bottom-up analysis result for one subexpression.
type info struct {
	vars spans.VarSet
	// auto is a selection-free vset-automaton equivalent to the
	// subexpression, built with the closure constructions of package
	// automata; nil when the subtree uses selections, fusion, or
	// references and no equivalent automaton is known.
	auto *automata.NFA
	// sat records satisfiability when satKnown; checks that need it are
	// skipped otherwise (satisfiability of general core subexpressions is
	// undecidable, Section 2.4).
	sat      bool
	satKnown bool
}

// walk analyzes one node. underSelect marks a node whose direct parent is
// a string-equality selection (used to report SP007 once per selection
// chain); selZ carries the selection classes of every enclosing SelectEq,
// at any distance, so joins can recognize the select-over-cross-product
// idiom.
func (r *runner) walk(e algebra.Expr, pos string, underSelect bool, selZ []spans.VarSet) info {
	switch m := e.(type) {
	case algebra.Prim:
		return r.walkPrim(m, pos)
	case algebra.Union:
		return r.walkUnion(m, pos, selZ)
	case algebra.Join:
		return r.walkJoin(m, pos, selZ)
	case algebra.Project:
		return r.walkProject(m, pos, selZ)
	case algebra.SelectEq:
		return r.walkSelect(m, pos, underSelect, selZ)
	case algebra.Fuse:
		sub := r.walk(m.Sub, pos+".Sub", false, selZ)
		// Fusion maps every input tuple to exactly one output tuple, so it
		// preserves (un)satisfiability; it leaves the regular fragment,
		// so no automaton is propagated.
		return info{vars: m.Vars(), sat: sub.sat, satKnown: sub.satKnown}
	}
	return info{vars: e.Vars()}
}

func (r *runner) walkPrim(m algebra.Prim, pos string) info {
	r.checkDeadStates(m.A, pos)
	if m.A.HasRefs() {
		// A ref-automaton embedded as a primitive: the regular-spanner
		// pass machinery does not apply. Use Refl for refl-spanners.
		return info{vars: m.A.Vars}
	}
	sat := vset.Satisfiable(m.A)
	if !sat {
		r.report(CodeUnsatisfiable, Error, pos,
			"spanner matches no document at all (empty language): every evaluation returns the empty relation",
			"the automaton has no path from the start state to a final state")
	}
	return info{vars: m.A.Vars, auto: m.A, sat: sat, satKnown: true}
}

func (r *runner) walkUnion(m algebra.Union, pos string, selZ []spans.VarSet) info {
	l := r.walk(m.L, pos+".L", false, selZ)
	rr := r.walk(m.R, pos+".R", false, selZ)
	out := info{vars: l.vars.Union(rr.vars)}
	if l.satKnown && rr.satKnown {
		out.sat, out.satKnown = l.sat || rr.sat, true
	}
	if l.auto != nil && rr.auto != nil {
		out.auto = automata.Union(l.auto, rr.auto)
		// SP008: duplicate branch. Skip when a branch is empty — SP001
		// already reports that, and "equivalent to nothing" is noise.
		if l.sat && rr.sat && vset.Equivalent(l.auto, rr.auto) {
			r.report(CodeDuplicateBranch, Warning, pos,
				"the two branches of this union extract the same relation from every document",
				"drop one branch; the union is equivalent to either operand alone")
		}
	}
	return out
}

func (r *runner) walkJoin(m algebra.Join, pos string, selZ []spans.VarSet) info {
	l := r.walk(m.L, pos+".L", false, selZ)
	rr := r.walk(m.R, pos+".R", false, selZ)
	out := info{vars: l.vars.Union(rr.vars)}
	shared := l.vars.Intersect(rr.vars)
	// SP003a: no shared variables while both sides bind some — the natural
	// join silently degenerates to a cartesian product. One variable-free
	// side is fine: that is the idiomatic boolean filter. So is an enclosing
	// string-equality selection relating the two sides — ς=(a ⋈ b) over
	// disjoint variable sets is the canonical core-spanner query shape
	// (Section 2.3) and the cross product is evidently intended there.
	if len(shared) == 0 && len(l.vars) > 0 && len(rr.vars) > 0 && !selectsAcross(selZ, l.vars, rr.vars) {
		r.report(CodeDegenerateJoin, Warning, pos,
			fmt.Sprintf("join operands share no variables (%v vs %v): the natural join degenerates to a cartesian product", l.vars, rr.vars),
			"if the cross product is intended, say so in a comment; otherwise check the variable names")
	}
	// The synchronized product captures exactly the joinable pairs only
	// when both operands bind every shared variable on every run. An
	// operand that can leave one unassigned — a union of different
	// schemas, or any operand under schemaless semantics — joins with
	// every binding of it on the other side, which the product drops;
	// the join's automaton and satisfiability are then unknown.
	synced := l.auto != nil && rr.auto != nil &&
		vset.AllBound(l.auto, shared) && vset.AllBound(rr.auto, shared)
	if synced {
		la, ra := l.auto, rr.auto
		if len(shared) > 0 {
			// Present consecutive shared markers in one canonical order so
			// the product construction synchronizes soundly (Section 2.2,
			// Option 1) — same normalization as algebra.Simplify.
			la, ra = automata.Normalize(la), automata.Normalize(ra)
		}
		out.auto = automata.Join(la, ra)
		out.sat, out.satKnown = vset.Satisfiable(out.auto), true
		// SP003b: both sides satisfiable but no combined tuple exists.
		if l.sat && rr.sat && !out.sat {
			r.report(CodeDegenerateJoin, Error, pos,
				"join is provably empty: both operands are satisfiable, but no document admits a combined tuple",
				"the operands constrain the shared variables (or the document language) inconsistently")
		}
	} else if (l.satKnown && !l.sat) || (rr.satKnown && !rr.sat) {
		out.sat, out.satKnown = false, true
	}
	return out
}

// selectsAcross reports whether some enclosing selection class contains a
// variable from each of the two operand schemas, i.e. the selection
// relates the join sides and the cross product carries intent.
func selectsAcross(selZ []spans.VarSet, l, r spans.VarSet) bool {
	for _, z := range selZ {
		if len(z.Intersect(l)) > 0 && len(z.Intersect(r)) > 0 {
			return true
		}
	}
	return false
}

func (r *runner) walkProject(m algebra.Project, pos string, selZ []spans.VarSet) info {
	sub := r.walk(m.Sub, pos+".Sub", false, selZ)
	out := info{vars: sub.vars.Intersect(m.Keep), sat: sub.sat, satKnown: sub.satKnown}
	if ghost := m.Keep.Minus(sub.vars); len(ghost) > 0 {
		r.report(CodeDegenerateProj, Warning, pos,
			fmt.Sprintf("projection keeps %v, which no subexpression binds", ghost),
			"a kept variable that is never bound stays unassigned in every result tuple; check for a typo")
	}
	if len(sub.vars) > 0 && len(out.vars) == 0 {
		r.report(CodeDegenerateProj, Warning, pos,
			fmt.Sprintf("projection drops every variable of %v: the result is a boolean (yes/no) spanner", sub.vars),
			"if a boolean query is intended, project onto an explicit non-empty subset instead")
	}
	if sub.auto != nil {
		out.auto = automata.Project(sub.auto, m.Keep)
	}
	return out
}

func (r *runner) walkSelect(m algebra.SelectEq, pos string, underSelect bool, selZ []spans.VarSet) info {
	sub := r.walk(m.Sub, pos+".Sub", true, append(selZ, m.Z))
	if !underSelect {
		r.checkReflRewrite(m, pos)
	}
	// Selections over variables the subexpression never binds can never be
	// satisfied: the selection semantics (both classical and schemaless)
	// keeps only tuples that assign every selected variable.
	if unbound := m.Z.Minus(sub.vars); len(unbound) > 0 {
		r.report(CodeDegenerateSel, Error, pos,
			fmt.Sprintf("string-equality selection on %v, but %v is never bound by the subexpression: the selection is always empty", m.Z, unbound),
			"bind the variable, or select over the variables the subexpression actually produces (was it projected away?)")
		return info{vars: sub.vars, sat: false, satKnown: true}
	}
	if len(m.Z) <= 1 {
		r.report(CodeDegenerateSel, Warning, pos,
			fmt.Sprintf("string-equality selection on %v compares fewer than two variables: it is a no-op", m.Z),
			"drop the selection")
		return sub // a no-op passes the subexpression analysis through
	}
	if sub.auto != nil {
		if !vset.JointlyBindable(sub.auto, m.Z) {
			r.report(CodeDegenerateSel, Error, pos,
				fmt.Sprintf("variables %v are never jointly bound on any accepting run: the selection is always empty", m.Z),
				"under the schemaless semantics a tuple passes ς= only if it assigns every selected variable; bind them on a common alternative")
			return info{vars: sub.vars, sat: false, satKnown: true}
		}
		if r.alwaysSameSpan(sub.auto, m.Z) {
			r.report(CodeDegenerateSel, Warning, pos,
				fmt.Sprintf("variables %v provably extract the same span on every match: the selection is a no-op", m.Z),
				"drop the selection; equal spans always have equal content")
			return sub
		}
	}
	out := info{vars: sub.vars}
	if sub.satKnown && !sub.sat {
		out.sat, out.satKnown = false, true
	}
	return out
}

// alwaysSameSpan reports whether every pair of z provably extracts one and
// the same span on every accepting run.
func (r *runner) alwaysSameSpan(a *automata.NFA, z spans.VarSet) bool {
	for i := 0; i < len(z); i++ {
		for j := i + 1; j < len(z); j++ {
			if !vset.AlwaysSameSpan(a, z[i], z[j]) {
				return false
			}
		}
	}
	return true
}

// checkDeadStates emits SP002 for states Trim would remove.
func (r *runner) checkDeadStates(n *automata.NFA, pos string) {
	unreachable, nonCoaccessible := n.DeadStates()
	if len(unreachable) == 0 && len(nonCoaccessible) == 0 {
		return
	}
	r.report(CodeDeadStates, Warning, pos,
		fmt.Sprintf("vset-automaton has %d unreachable and %d non-coaccessible of %d states",
			len(unreachable), len(nonCoaccessible), n.NumStates()),
		"dead states slow every product construction and determinization; trim the automaton (NFA.Trim)")
}

// checkHierarchical emits SP006 on the root when the whole expression is
// representable as a regular spanner and can extract properly overlapping
// spans (Section 2.2). Many downstream algorithms — the refl translation
// of Section 3.2, split-correct sharding — assume hierarchicality.
func (r *runner) checkHierarchical(root info) {
	if root.auto == nil || !root.sat || len(root.vars) < 2 {
		return
	}
	if vset.Hierarchical(root.auto) {
		return
	}
	r.report(CodeNonHierarchical, Info, "$",
		"spanner is not hierarchical: it can extract properly overlapping (neither nested nor disjoint) spans",
		"algorithms that assume hierarchicality (refl translation, split-correct sharding) may not apply")
}

// checkReflRewrite emits SP007 when a maximal chain of string-equality
// selections over a pattern-compiled primitive admits the constructive
// core→refl translation of Section 3.2 (refl.FromRegexCore): the query can
// then be written as a single pattern with references &x instead of
// selections.
func (r *runner) checkReflRewrite(m algebra.SelectEq, pos string) {
	var classes []spans.VarSet
	var cur algebra.Expr = m
	for {
		sel, ok := cur.(algebra.SelectEq)
		if !ok {
			break
		}
		classes = append(classes, sel.Z)
		cur = sel.Sub
	}
	prim, ok := cur.(algebra.Prim)
	if !ok || prim.Src == nil || prim.A.HasRefs() {
		return
	}
	// A class with fewer than two variables selects nothing; the rewrite
	// hint only earns its keep when a real selection goes away (no-op
	// classes are SP005's business).
	real := false
	for _, z := range classes {
		if len(z) >= 2 {
			real = true
		}
	}
	if !real {
		return
	}
	if _, err := refl.FromRegexCore(prim.Src, classes, prim.A.Alphabet()); err != nil {
		return
	}
	r.report(CodeReflRewrite, Info, pos,
		fmt.Sprintf("the string-equality selections %v admit a regular refl rewrite: this core query is expressible as a refl-spanner", classes),
		"keep one binding per selection class and re-bind the other variables as references (&x); see refl.FromRegexCore and the Refl-Spanners paper (Schmid & Schweikardt)")
}
