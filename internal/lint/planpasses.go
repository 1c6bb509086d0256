package lint

import (
	"fmt"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/spans"
)

// PlanConfig parameterizes the plan-level passes with the planner
// options that decide physical cost. The zero value uses the planner's
// defaults.
type PlanConfig struct {
	// MaxDeterminizeStates mirrors plan.Options.MaxDeterminizeStates:
	// the planner's backend gate (an NFA with more states is evaluated
	// naively) and, here, the subset-construction budget of SP009.
	MaxDeterminizeStates int
	// Schemaless mirrors plan.Options.Schemaless; bindability of shared
	// join variables only matters under schemaless semantics, where
	// unbound variables hold ⊥ and join with everything.
	Schemaless bool
}

func (c PlanConfig) maxDeterminize() int {
	if c.MaxDeterminizeStates > 0 {
		return c.MaxDeterminizeStates
	}
	return 4096
}

// PlanDiags runs the plan-level passes over a rewritten logical plan.
// Unlike the expression passes (Expr), which judge what the query says,
// these judge what the chosen plan will cost: they fire only on
// structure that survived the planner's rewrites — a join the planner
// fused away costs nothing and is not reported.
//
//	SP009  determinization blowup: a scan's NFA passes the backend
//	       gate, but its subset construction exceeds the same budget —
//	       the first evaluation pays an exponential, cached, up-front
//	       determinization the gate cannot see (it counts NFA states,
//	       not DFA states).
//	SP010  join-cost blowup: a join that survived rewriting whose
//	       inputs share no variables and that no enclosing selection
//	       relates (a materialized cross product), or — under
//	       schemaless semantics — whose shared variables are not always
//	       bound on a scan input, so ⊥-valued tuples join
//	       near-universally.
//
// Positions use the same "$"-path convention as the expression passes;
// plan nodes carry the path of the expression node they descend from.
func PlanDiags(p *algebra.Plan, cfg PlanConfig) []Diagnostic {
	var out []Diagnostic
	// selZ carries the selection classes of every enclosing PSelect, so
	// joins can recognize the select-over-cross-product idiom — the same
	// exemption the SP003 expression pass grants (Section 2.3).
	var walk func(n *algebra.Plan, selZ []spans.VarSet)
	walk = func(n *algebra.Plan, selZ []spans.VarSet) {
		if n == nil {
			return
		}
		out = append(out, checkDeterminizeBlowup(n, cfg)...)
		out = append(out, checkJoinBlowup(n, cfg, selZ)...)
		if n.Kind == algebra.PSelect {
			selZ = append(selZ[:len(selZ):len(selZ)], n.Z)
		}
		for _, c := range n.Children {
			walk(c, selZ)
		}
	}
	walk(p, nil)
	sortDiags(out)
	return out
}

// checkDeterminizeBlowup is the SP009 pass. It only considers scans the
// planner will actually determinize: reference-free automata within the
// NFA-state gate. For those it runs the bounded subset construction —
// cut off just past the budget, so lint itself stays cheap — and warns
// when the DFA the first evaluation will build (and cache) exceeds it.
func checkDeterminizeBlowup(n *algebra.Plan, cfg PlanConfig) []Diagnostic {
	if n.Kind != algebra.PScan {
		return nil
	}
	limit := cfg.maxDeterminize()
	if n.Auto.HasRefs() || n.Auto.NumStates() > limit {
		return nil // naive backend: no determinization happens
	}
	states, within := automata.DeterminizedStatesAtMost(n.Auto, limit)
	if within {
		return nil
	}
	return []Diagnostic{{
		Code:     CodeDeterminizeBlowup,
		Severity: Warning,
		Pos:      n.Path,
		Message: fmt.Sprintf(
			"determinization blowup: the scan's %d-state automaton determinizes to more than %d states (construction cut off at %d); the backend gate counts NFA states, so the constant-delay backend pays this exponential construction on first evaluation",
			n.Auto.NumStates(), limit, states),
		Hint: "force the naive backend for this query (NaiveBackend / naive_backend), or lower MaxDeterminizeStates below the automaton's state count so the gate routes it to the naive backend",
	}}
}

// checkJoinBlowup is the SP010 pass. A cross product under an enclosing
// selection class that relates both sides is exempt: ς=(a ⋈ b) over
// disjoint variable sets is the canonical core-spanner query shape, and
// when the selection sits directly on the join the cost is gone — the
// materializing backend evaluates it inside the join, as a hash equi-join
// on factor content, and builds the product of no two tuples that
// disagree. (A selection further up, a projection in between, still
// filters a product that was built; it stays exempt as the shape's
// intent.) Likewise a variable-free side — the idiomatic boolean filter
// contributes at most one tuple, so the "product" is a filter, not a
// blowup.
func checkJoinBlowup(n *algebra.Plan, cfg PlanConfig, selZ []spans.VarSet) []Diagnostic {
	if n.Kind != algebra.PJoin {
		return nil
	}
	var out []Diagnostic
	bc := algebra.NewBoundCache()
	// The materializing backend folds children left to right, so cost is
	// judged pairwise: the accumulated schema so far against each next
	// child.
	acc := n.Children[0].Vars()
	for _, c := range n.Children[1:] {
		shared := acc.Intersect(c.Vars())
		if len(shared) == 0 && len(acc) > 0 && len(c.Vars()) > 0 &&
			!selectsAcross(selZ, acc, c.Vars()) {
			out = append(out, Diagnostic{
				Code:     CodeJoinBlowup,
				Severity: Warning,
				Pos:      n.Path,
				Message: fmt.Sprintf(
					"join-cost blowup: join inputs with schemas %v and %v share no variables after rewriting and no selection relates them, so the materializing backend builds their full cross product",
					acc, c.Vars()),
				Hint: "join on a shared variable, or evaluate the sides as separate queries and combine outside the engine",
			})
		} else if cfg.Schemaless {
			if weak := weaklyBoundVars(n, bc, shared); len(weak) > 0 {
				out = append(out, Diagnostic{
					Code:     CodeJoinBlowup,
					Severity: Warning,
					Pos:      n.Path,
					Message: fmt.Sprintf(
						"join-cost blowup: under schemaless semantics the shared join variables %v are not always bound on every input, and a tuple with ⊥ in a shared variable joins with every binding on the other side — the join degenerates toward a cross product",
						weak),
					Hint: "make the shared variables mandatory in each branch (so every tuple binds them), or run the query under functional semantics",
				})
			}
		}
		acc = acc.Union(c.Vars())
	}
	return out
}

// weaklyBoundVars returns the shared variables that some scan input of
// the join does not always bind. Non-scan inputs are skipped: their
// bindability would require evaluating the subplan's semantics, and a
// missed warning is better than a wrong one.
func weaklyBoundVars(n *algebra.Plan, bc algebra.BoundCache, shared spans.VarSet) spans.VarSet {
	var weak spans.VarSet
	for _, c := range n.Children {
		if c.Kind != algebra.PScan || c.Auto.HasRefs() {
			continue
		}
		for _, v := range shared {
			if !c.Auto.Vars.Contains(v) {
				continue
			}
			if !bc.Bound(c.Auto, v) {
				weak = weak.Union(spans.NewVarSet(v))
			}
		}
	}
	return weak
}
