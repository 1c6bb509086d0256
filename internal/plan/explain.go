package plan

import (
	"fmt"
	"strings"

	"docspanner/internal/algebra"
)

// Explain renders the plan for humans: the rewritten logical shape, the
// physical backend chosen for every node, and the per-node rewrite
// provenance accumulated by the passes.
func (pl *Planned) Explain() string {
	var sb strings.Builder
	sem := "functional"
	if pl.opts.Schemaless {
		sem = "schemaless"
	}
	fmt.Fprintf(&sb, "plan: %s\n", pl.logical.String())
	fmt.Fprintf(&sb, "semantics: %s\n", sem)
	if pl.opts.DisableRewrites {
		sb.WriteString("rewrites: disabled\n")
	} else if len(pl.passNotes) == 0 {
		sb.WriteString("rewrites: none applied\n")
	} else {
		fmt.Fprintf(&sb, "rewrites: %s\n", strings.Join(pl.passNotes, ", "))
	}
	if len(pl.requireTotal) > 0 {
		fmt.Fprintf(&sb, "root filter: total on %v\n", pl.requireTotal)
	}
	if diags := pl.Lint(); len(diags) > 0 {
		sb.WriteString("warnings:\n")
		for _, d := range diags {
			fmt.Fprintf(&sb, "  ! %s\n", d)
		}
	}
	explainNode(&sb, pl.root, 0)
	return sb.String()
}

func explainNode(sb *strings.Builder, n physNode, depth int) {
	indent := strings.Repeat("  ", depth)
	p := n.lp()
	fmt.Fprintf(sb, "%s%s", indent, p.Kind)
	switch {
	case p.Auto != nil:
		fmt.Fprintf(sb, " %dq vars=%v", p.Auto.NumStates(), p.Auto.Vars)
	case p.Ext != nil:
		fmt.Fprintf(sb, " vars=%v", p.Ext.Vars())
	default:
		fmt.Fprintf(sb, " vars=%v", p.Vars())
	}
	switch p.Kind {
	case algebra.PProject:
		fmt.Fprintf(sb, " keep=%v", p.Keep)
	case algebra.PSelect:
		fmt.Fprintf(sb, " class=%v", p.Z)
	case algebra.PFuse:
		fmt.Fprintf(sb, " λ=%v→%s", p.Lambda, p.Target)
	}
	fmt.Fprintf(sb, "  [%s]\n", n.backend())
	for _, rw := range p.Rewrites {
		fmt.Fprintf(sb, "%s  • %s\n", indent, rw)
	}
	if m, ok := n.(*matPhys); ok {
		if lv, rv, ok := m.equiJoinKey(); ok {
			fmt.Fprintf(sb, "%s  • physical: hash equi-join on content(%s)=content(%s) inside the join below\n", indent, lv, rv)
		}
	}
	for _, c := range n.children() {
		explainNode(sb, c, depth+1)
	}
}
