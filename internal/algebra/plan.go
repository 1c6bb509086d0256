package algebra

import (
	"fmt"
	"strings"

	"docspanner/internal/automata"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// PlanKind discriminates the nodes of the logical plan IR.
type PlanKind uint8

const (
	// PScan evaluates a single vset-automaton (a regular spanner).
	PScan PlanKind = iota
	// PExtScan evaluates an external spanner (e.g. a refl-spanner) that
	// is opaque to the algebraic rewrites.
	PExtScan
	// PUnion, PJoin, PProject, PSelect, PFuse mirror the algebra
	// operators ∪, ⋈, π, ς=, ⨄.
	PUnion
	PJoin
	PProject
	PSelect
	PFuse
	// PEmpty is a provably empty subplan (dead-subtree pruning).
	PEmpty
)

// String names the node kind as it appears in EXPLAIN output.
func (k PlanKind) String() string {
	switch k {
	case PScan:
		return "scan"
	case PExtScan:
		return "ext-scan"
	case PUnion:
		return "union"
	case PJoin:
		return "join"
	case PProject:
		return "project"
	case PSelect:
		return "select-eq"
	case PFuse:
		return "fuse"
	case PEmpty:
		return "empty"
	}
	return fmt.Sprintf("plankind(%d)", uint8(k))
}

// ExternalSpanner is a spanner the planner treats as a black box: it is
// scanned as a whole, never rewritten. *refl.Spanner satisfies it.
type ExternalSpanner interface {
	Vars() spans.VarSet
	// Each calls f for every result tuple on doc, each once, and reports
	// whether it finished: false when f or poll (nil for none) stopped it.
	Each(doc []byte, functional bool, poll func() bool, f func(spans.Tuple) bool) bool
}

// Plan is a node of the logical query plan derived from an Expr. Unlike
// Expr it is mutable during planning: rewrite passes edit the tree in
// place and record what they did in Rewrites, so EXPLAIN can show
// per-node provenance. Once planning finishes, the tree is frozen and
// shared (physical evaluation never mutates it).
type Plan struct {
	Kind     PlanKind
	Children []*Plan

	// PScan payload. Src optionally carries the regex AST of the scanned
	// automaton (used by the refl-rewrite pass; nil for fused scans).
	Auto *automata.NFA
	Src  regex.Node

	// PExtScan payload.
	Ext ExternalSpanner

	// Operator payloads: Keep for PProject, Z for PSelect, Lambda/Target
	// for PFuse, Schema for PEmpty (the pruned subtree's variables, kept
	// so the plan's schema is unchanged by pruning).
	Keep   spans.VarSet
	Z      spans.VarSet
	Lambda spans.VarSet
	Target spans.Var
	Schema spans.VarSet

	// Path locates the node in the ORIGINAL expression tree using the
	// spanlint convention ("$", "$.L", "$.R", "$.Sub"), so lint
	// diagnostics can be mapped onto plan nodes. Nodes introduced by
	// rewrites inherit the path of the node they replaced.
	Path string

	// Rewrites records, in order, the rewrite steps that produced or
	// altered this node.
	Rewrites []string
}

// FromExpr derives the initial (unoptimized) logical plan of an
// expression. The plan mirrors the expression tree one-to-one; Path
// follows the spanlint position convention.
func FromExpr(e Expr) *Plan {
	return fromExpr(e, "$")
}

func fromExpr(e Expr, path string) *Plan {
	switch m := e.(type) {
	case Prim:
		return &Plan{Kind: PScan, Auto: m.A, Src: m.Src, Path: path}
	case Union:
		return &Plan{Kind: PUnion, Children: []*Plan{fromExpr(m.L, path+".L"), fromExpr(m.R, path+".R")}, Path: path}
	case Join:
		return &Plan{Kind: PJoin, Children: []*Plan{fromExpr(m.L, path+".L"), fromExpr(m.R, path+".R")}, Path: path}
	case Project:
		return &Plan{Kind: PProject, Children: []*Plan{fromExpr(m.Sub, path+".Sub")}, Keep: m.Keep, Path: path}
	case SelectEq:
		return &Plan{Kind: PSelect, Children: []*Plan{fromExpr(m.Sub, path+".Sub")}, Z: m.Z, Path: path}
	case Fuse:
		return &Plan{Kind: PFuse, Children: []*Plan{fromExpr(m.Sub, path+".Sub")}, Lambda: m.Lambda, Target: m.Target, Path: path}
	}
	panic(fmt.Sprintf("algebra: FromExpr: unknown node %T", e))
}

// Vars returns the node's output schema.
func (p *Plan) Vars() spans.VarSet {
	switch p.Kind {
	case PScan:
		return p.Auto.Vars
	case PExtScan:
		return p.Ext.Vars()
	case PUnion, PJoin:
		var out spans.VarSet
		for _, c := range p.Children {
			out = out.Union(c.Vars())
		}
		return out
	case PProject:
		return p.Children[0].Vars().Intersect(p.Keep)
	case PSelect:
		return p.Children[0].Vars()
	case PFuse:
		return p.Children[0].Vars().Minus(p.Lambda).Union(spans.NewVarSet(p.Target))
	case PEmpty:
		return p.Schema
	}
	panic("algebra: Plan.Vars: unknown kind")
}

// Note appends a rewrite-provenance entry to the node.
func (p *Plan) Note(msg string) { p.Rewrites = append(p.Rewrites, msg) }

// Eval is the reference (materializing) evaluation of the plan — the
// same bottom-up relational semantics as Expr.Eval, used by the naive
// backend and by the rewrite-equivalence tests.
func (p *Plan) Eval(doc []byte, sem vset.Semantics) *spans.Relation {
	switch p.Kind {
	case PScan:
		return vset.Eval(p.Auto, doc, sem)
	case PExtScan:
		out := spans.NewRelation()
		p.Ext.Each(doc, sem == vset.Functional, nil, func(t spans.Tuple) bool { out.Add(t); return true })
		return out
	case PUnion:
		out := p.Children[0].Eval(doc, sem)
		for _, c := range p.Children[1:] {
			out = out.Union(c.Eval(doc, sem))
		}
		return out
	case PJoin:
		out := p.Children[0].Eval(doc, sem)
		for _, c := range p.Children[1:] {
			out = out.Join(c.Eval(doc, sem))
		}
		return out
	case PProject:
		return p.Children[0].Eval(doc, sem).Project(p.Keep)
	case PSelect:
		return p.Children[0].Eval(doc, sem).SelectEqual(doc, p.Z)
	case PFuse:
		return p.Children[0].Eval(doc, sem).Fuse(p.Lambda, p.Target)
	case PEmpty:
		return spans.NewRelation()
	}
	panic("algebra: Plan.Eval: unknown kind")
}

// String renders the plan as a one-line expression.
func (p *Plan) String() string {
	switch p.Kind {
	case PScan:
		return fmt.Sprintf("⟦M:%dq⟧%v", p.Auto.NumStates(), p.Auto.Vars)
	case PExtScan:
		return fmt.Sprintf("⟦ext⟧%v", p.Ext.Vars())
	case PUnion:
		return "(" + joinStrings(p.Children, " ∪ ") + ")"
	case PJoin:
		return "(" + joinStrings(p.Children, " ⋈ ") + ")"
	case PProject:
		return "π" + p.Keep.String() + "(" + p.Children[0].String() + ")"
	case PSelect:
		return "ς=" + p.Z.String() + "(" + p.Children[0].String() + ")"
	case PFuse:
		return fmt.Sprintf("⨄%v→%s(%s)", p.Lambda, p.Target, p.Children[0].String())
	case PEmpty:
		return "∅" + p.Schema.String()
	}
	return "?"
}

func joinStrings(ps []*Plan, sep string) string {
	parts := make([]string, len(ps))
	for i, c := range ps {
		parts[i] = c.String()
	}
	return strings.Join(parts, sep)
}

// Fingerprint returns a structural identity string. Automata and
// external spanners are identified by address, which identifies them
// only while they are reachable: compare fingerprints of nodes of live
// plans (the planner's pass change detection, the sibling comparison in
// DedupUnions), and never keep one as a key — a fused plan drops its
// operand automata and the allocator hands their addresses to the next
// query's.
func (p *Plan) Fingerprint() string {
	var sb strings.Builder
	p.fingerprint(&sb)
	return sb.String()
}

func (p *Plan) fingerprint(sb *strings.Builder) {
	fmt.Fprintf(sb, "%d", p.Kind)
	switch p.Kind {
	case PScan:
		fmt.Fprintf(sb, "@%p", p.Auto)
	case PExtScan:
		fmt.Fprintf(sb, "@%p", p.Ext)
	case PProject:
		sb.WriteString(p.Keep.String())
	case PSelect:
		sb.WriteString(p.Z.String())
	case PFuse:
		sb.WriteString(p.Lambda.String())
		sb.WriteString(string(p.Target))
	case PEmpty:
		sb.WriteString(p.Schema.String())
	}
	sb.WriteByte('(')
	for _, c := range p.Children {
		c.fingerprint(sb)
		sb.WriteByte(',')
	}
	sb.WriteByte(')')
}
