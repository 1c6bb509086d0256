package spanlog

import (
	"fmt"

	"docspanner/internal/spans"
)

// Stratified negation: body literals may be negated (Literal.Negated),
// with the usual safety and stratification conditions. A negated literal
// filters out bindings for which a matching fact exists; its variables
// must all be bound by positive literals of the same rule. Negation
// through recursion is rejected (no negative edge inside a dependency
// cycle), so the stratified fixpoint is well-defined.

// Stratify orders the program's predicates into strata such that every
// negative dependency points to a strictly lower stratum. It returns the
// stratum of each IDB predicate, or an error if the program is not
// stratifiable.
func (p *Program) Stratify() (map[string]int, error) {
	// Dependency edges head -> body predicate with polarity.
	type edge struct {
		to  string
		neg bool
	}
	adj := map[string][]edge{}
	preds := map[string]bool{}
	for _, r := range p.Rules {
		preds[r.Head.Pred] = true
		for _, l := range r.Body {
			if l.Spanner != nil || l.StrEq {
				continue
			}
			adj[r.Head.Pred] = append(adj[r.Head.Pred], edge{l.Atom.Pred, l.Negated})
			preds[l.Atom.Pred] = true
		}
	}
	// Bellman-Ford-style stratum assignment: stratum(head) ≥ stratum(body)
	// and > for negated bodies; more than |preds| rounds means a negative
	// cycle.
	stratum := map[string]int{}
	for pr := range preds {
		stratum[pr] = 0
	}
	for round := 0; ; round++ {
		changed := false
		for head, es := range adj {
			for _, e := range es {
				need := stratum[e.to]
				if e.neg {
					need++
				}
				if stratum[head] < need {
					stratum[head] = need
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if round > len(preds)+1 {
			return nil, fmt.Errorf("spanlog: program is not stratifiable (negation through recursion)")
		}
	}
	return stratum, nil
}

// validateNegation checks safety: every variable of a negated literal is
// bound by a positive, non-negated literal of the same rule.
func (p *Program) validateNegation() error {
	for _, r := range p.Rules {
		bound := map[spans.Var]bool{}
		for _, l := range r.Body {
			if l.Negated || l.StrEq {
				continue
			}
			for _, v := range l.Atom.Args {
				bound[v] = true
			}
		}
		for _, l := range r.Body {
			if !l.Negated {
				continue
			}
			if l.StrEq {
				return fmt.Errorf("spanlog: negated eq is not supported; use a positive helper predicate")
			}
			for _, v := range l.Atom.Args {
				if !bound[v] {
					return fmt.Errorf("spanlog: variable %s of negated literal %s is not bound positively", v, l.Atom)
				}
			}
		}
	}
	return nil
}
