// Package plan is the query planner behind the facade's evaluation
// entry points: it lowers a core-spanner algebra expression into a
// logical plan (package algebra's Plan IR), runs the rewrite passes —
// empty-subtree pruning, duplicate-union elimination, selection/
// projection pushdown, no-op selection removal, the opt-in core→refl
// rewrite, and the executable core-simplification lemma (operator
// fusion into single vset-automata) — and then selects a
// physical backend per (sub)plan: constant-delay enumeration over the
// determinized automaton, the materializing relational evaluation, or
// compressed slpmatch evaluation when the input is an SLP document.
//
// Planning runs in query complexity only (no document involved). A
// Planned is safe for concurrent use and owns what evaluation derives
// from it — the determinized automaton and the compressed-evaluation
// index of a constant-delay scan — so a caller that keeps the plan (the
// facade keeps one per query) plans, determinizes and indexes once, and
// dropping the plan frees all of it.
package plan

import (
	"fmt"

	"docspanner/internal/algebra"
	"docspanner/internal/refl"
	"docspanner/internal/spans"
)

// Options configures planning. The zero value gives the default
// pipeline: all rewrites on, refl rewriting off, automatic backend
// selection.
type Options struct {
	// Schemaless selects the result semantics (partial tuples instead
	// of per-primitive totality). Several rewrite guards depend on it.
	Schemaless bool
	// DisableRewrites turns every logical rewrite pass off; the plan
	// mirrors the expression tree and only backend selection remains.
	DisableRewrites bool
	// ReflRewrite opts into the core→refl rewrite (Section 3.2 of the
	// survey; spanlint's SP007): a chain of string-equality selections
	// over a pattern-compiled scan becomes a single refl-spanner scan.
	// Only applied under functional semantics, where the translation's
	// equivalence is established.
	ReflRewrite bool
	// NaiveBackend forces the materializing reference backend (vset
	// configuration search per scan) instead of constant-delay
	// enumeration — the planner-off baseline of the benchmarks.
	NaiveBackend bool
	// MaxFusedStates caps the size of automata the core-simplification
	// pass may build (default 4096).
	MaxFusedStates int
	// MaxNormStates caps the inputs of determinizing normalization
	// during join fusion and union dedup (default 128).
	MaxNormStates int
	// MaxDeterminizeStates is the state-count cost gate of backend
	// selection: scans whose NFA exceeds it fall back to the
	// materializing backend rather than determinizing (default 4096).
	MaxDeterminizeStates int
	// RequireTotal, when non-empty, filters the root result to tuples
	// total on the given variables. The facade uses it to give
	// automatically ToCore-translated refl-spanners their functional
	// semantics: the translation is evaluated schemaless inside and
	// filtered at the root.
	RequireTotal spans.VarSet
	// NoCache has no effect: New always builds. bench/model.go sets it,
	// which is the only reason the field exists; delete the two together.
	NoCache bool
}

func (o Options) maxDeterminize() int {
	if o.MaxDeterminizeStates > 0 {
		return o.MaxDeterminizeStates
	}
	return 4096
}

func (o Options) policy() algebra.FusePolicy {
	return algebra.FusePolicy{
		Schemaless:    o.Schemaless,
		MaxStates:     o.MaxFusedStates,
		MaxNormStates: o.MaxNormStates,
	}
}

// New plans an algebra expression: lower, rewrite, select backends.
func New(e algebra.Expr, opts Options) *Planned {
	lp := algebra.FromExpr(e)
	var notes []string
	if !opts.DisableRewrites {
		lp, notes = rewrite(lp, opts)
	}
	return &Planned{
		logical:      lp,
		root:         buildPhys(lp, opts),
		opts:         opts,
		passNotes:    notes,
		requireTotal: opts.RequireTotal,
	}
}

// NewExternal plans a single external (e.g. refl) spanner scan. No
// rewrites apply; the plan exists so that the facade's Spanner methods
// route uniformly through the planner.
func NewExternal(ext algebra.ExternalSpanner, opts Options) *Planned {
	lp := &algebra.Plan{Kind: algebra.PExtScan, Ext: ext, Path: "$"}
	return &Planned{
		logical:      lp,
		root:         buildPhys(lp, opts),
		opts:         opts,
		requireTotal: opts.RequireTotal,
	}
}

// rewrite runs the logical pass pipeline and reports which passes
// changed the plan.
func rewrite(lp *algebra.Plan, opts Options) (*algebra.Plan, []string) {
	pol := opts.policy()
	bc := algebra.NewBoundCache()
	var applied []string
	step := func(name string, f func(*algebra.Plan) *algebra.Plan) {
		before := lp.Fingerprint()
		lp = f(lp)
		if lp.Fingerprint() != before {
			applied = append(applied, name)
		}
	}

	step("prune", algebra.PruneEmpty)
	step("dedup-union", func(p *algebra.Plan) *algebra.Plan { return algebra.DedupUnions(p, pol) })
	step("selection-pushdown", algebra.PushDownSelections)
	step("projection-pushdown", algebra.PushDownProjections)
	step("noop-select", func(p *algebra.Plan) *algebra.Plan { return algebra.DropNoopSelects(p, pol, bc) })
	step("prune", algebra.PruneEmpty)
	if opts.ReflRewrite && !opts.Schemaless {
		step("refl-rewrite", reflRewrite)
	}
	step("core-simplify", func(p *algebra.Plan) *algebra.Plan { return algebra.FuseRegular(p, pol) })
	// Fusing may expose new no-op selections (the fused scan is a
	// single automaton the guards can analyze) and vice versa.
	step("noop-select", func(p *algebra.Plan) *algebra.Plan { return algebra.DropNoopSelects(p, pol, bc) })
	step("prune", algebra.PruneEmpty)
	step("core-simplify", func(p *algebra.Plan) *algebra.Plan { return algebra.FuseRegular(p, pol) })
	return lp, applied
}

// reflRewrite replaces maximal chains of string-equality selections
// over a pattern-compiled scan by a single refl-spanner scan, when the
// constructive translation of Section 3.2 applies (refl.FromRegexCore;
// spanlint's SP007). Chains are tried outermost-first so the whole
// chain lands in one refl-spanner.
func reflRewrite(p *algebra.Plan) *algebra.Plan {
	if p.Kind == algebra.PSelect {
		if np, ok := tryReflChain(p); ok {
			return np
		}
	}
	for i, c := range p.Children {
		p.Children[i] = reflRewrite(c)
	}
	return p
}

func tryReflChain(p *algebra.Plan) (*algebra.Plan, bool) {
	var classes []spans.VarSet
	cur := p
	for cur.Kind == algebra.PSelect {
		classes = append(classes, cur.Z)
		cur = cur.Children[0]
	}
	if cur.Kind != algebra.PScan || cur.Src == nil || cur.Auto.HasRefs() {
		return nil, false
	}
	real := false
	for _, z := range classes {
		if len(z) >= 2 {
			real = true
		}
	}
	if !real {
		return nil, false
	}
	rs, err := refl.FromRegexCore(cur.Src, classes, cur.Auto.Alphabet())
	if err != nil {
		return nil, false
	}
	np := &algebra.Plan{Kind: algebra.PExtScan, Ext: rs, Path: p.Path, Rewrites: append([]string(nil), cur.Rewrites...)}
	np.Note(fmt.Sprintf("refl-rewrite: selections %v pushed into the regular layer as a refl-spanner (SP007)", classes))
	return np, true
}
