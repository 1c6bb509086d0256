// Package plan is the query planner behind the facade's evaluation
// entry points: it lowers a core-spanner algebra expression into a
// logical plan (package algebra's Plan IR), runs the rewrite passes —
// lint-driven dead-subtree pruning and duplicate-union elimination,
// selection/projection pushdown, no-op selection removal, the opt-in
// core→refl rewrite, and the executable core-simplification lemma
// (operator fusion into single vset-automata) — and then selects a
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
	"strings"

	"docspanner/internal/algebra"
	"docspanner/internal/lint"
	"docspanner/internal/refl"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
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
		lp, notes = rewrite(lp, e, opts)
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
func rewrite(lp *algebra.Plan, e algebra.Expr, opts Options) (*algebra.Plan, []string) {
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

	// Dead-subtree pruning and duplicate-union elimination, driven by
	// the spanlint analyses over the original expression (the plan still
	// mirrors it, so diagnostic paths resolve 1:1). A lone scan skips
	// the lint run: PruneEmpty already covers the only useful finding.
	if _, lone := e.(algebra.Prim); !lone {
		step("lint-prune", func(p *algebra.Plan) *algebra.Plan { return applyLint(p, e, opts, pol, bc) })
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

// applyLint maps spanlint diagnostics onto plan nodes (the Pos path
// follows the same "$", "$.L", "$.R", "$.Sub" convention) and applies
// the rewrites they license. Only provably sound prunes run; findings
// whose guard fails are left for the evaluation to handle.
func applyLint(lp *algebra.Plan, e algebra.Expr, opts Options, pol algebra.FusePolicy, bc algebra.BoundCache) *algebra.Plan {
	diags := lint.Expr(e, opts.Schemaless)
	for _, d := range diags {
		lp = applyDiag(lp, d, opts, pol, bc)
	}
	return lp
}

func applyDiag(lp *algebra.Plan, d lint.Diagnostic, opts Options, pol algebra.FusePolicy, bc algebra.BoundCache) *algebra.Plan {
	node := locate(lp, d.Pos)
	if node == nil {
		return lp
	}
	replace := func(f func(*algebra.Plan) *algebra.Plan) {
		lp = replaceAt(lp, d.Pos, f)
	}
	switch {
	case d.Code == "SP001" && d.Severity == lint.Error && node.Kind == algebra.PScan:
		replace(func(n *algebra.Plan) *algebra.Plan {
			return algebra.EmptyFor(n, "prune: scan is unsatisfiable (lint SP001)")
		})

	case d.Code == "SP003" && d.Severity == lint.Error && node.Kind == algebra.PJoin:
		// The lint product-automaton emptiness transfers to the
		// relational join only when the synchronized product captures
		// every joinable pair: immediate for functional scans (totality
		// binds the shared variables on both sides), and needing
		// always-bound shared variables under the schemaless semantics.
		l, r := node.Children[0], node.Children[1]
		if l.Kind != algebra.PScan || r.Kind != algebra.PScan || l.Auto.HasRefs() || r.Auto.HasRefs() {
			break
		}
		shared := l.Auto.Vars.Intersect(r.Auto.Vars)
		if opts.Schemaless && !(bc.AllBound(l.Auto, shared) && bc.AllBound(r.Auto, shared)) {
			break
		}
		replace(func(n *algebra.Plan) *algebra.Plan {
			return algebra.EmptyFor(n, "prune: join is provably empty (lint SP003)")
		})

	case d.Code == "SP005" && d.Severity == lint.Error && node.Kind == algebra.PSelect:
		z := node.Z
		child := node.Children[0]
		unbound := len(z.Minus(child.Vars())) > 0
		provable := unbound ||
			(child.Kind == algebra.PScan && !child.Auto.HasRefs() && !vset.JointlyBindable(child.Auto, z))
		if provable {
			replace(func(n *algebra.Plan) *algebra.Plan {
				return algebra.EmptyFor(n, "prune: selection is provably empty (lint SP005)")
			})
		}

	case d.Code == "SP008" && node.Kind == algebra.PUnion:
		replace(func(n *algebra.Plan) *algebra.Plan { return algebra.DedupUnions(n, pol) })
	}
	return lp
}

// locate resolves a lint position path to a plan node, or nil when the
// tree no longer matches (an earlier rewrite replaced an ancestor).
func locate(p *algebra.Plan, pos string) *algebra.Plan {
	segs := strings.Split(pos, ".")
	if len(segs) == 0 || segs[0] != "$" {
		return nil
	}
	for _, s := range segs[1:] {
		var idx int
		switch s {
		case "L", "Sub":
			idx = 0
		case "R":
			idx = 1
		default:
			return nil
		}
		if idx >= len(p.Children) {
			return nil
		}
		p = p.Children[idx]
	}
	return p
}

// replaceAt applies f to the node at pos and splices the result back.
func replaceAt(p *algebra.Plan, pos string, f func(*algebra.Plan) *algebra.Plan) *algebra.Plan {
	segs := strings.Split(pos, ".")
	if len(segs) == 0 || segs[0] != "$" {
		return p
	}
	if len(segs) == 1 {
		return f(p)
	}
	cur := p
	for _, s := range segs[1 : len(segs)-1] {
		cur = child(cur, s)
		if cur == nil {
			return p
		}
	}
	last := segs[len(segs)-1]
	idx := childIndex(last)
	if idx < 0 || idx >= len(cur.Children) {
		return p
	}
	cur.Children[idx] = f(cur.Children[idx])
	return p
}

func childIndex(seg string) int {
	switch seg {
	case "L", "Sub":
		return 0
	case "R":
		return 1
	}
	return -1
}

func child(p *algebra.Plan, seg string) *algebra.Plan {
	idx := childIndex(seg)
	if idx < 0 || idx >= len(p.Children) {
		return nil
	}
	return p.Children[idx]
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
