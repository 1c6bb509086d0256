// Package spanlog implements datalog over regular spanners in the style
// of RGXLog (Peterfreund, ten Cate, Fagin, Kimelfeld, ICDT 2019), which
// the survey cites for the result that datalog over regular spanners
// covers the whole class of core spanners. Programs consist of rules
// whose body literals are (a) spanner atoms — a regular spanner applied
// to the document, binding datalog variables to spans —, (b) IDB atoms,
// and (c) the built-in string-equality predicate eq(x, y), which holds
// when the spans' contents in the document coincide. Evaluation is
// bottom-up, stratum by stratum, naively iterated to a fixpoint.
package spanlog

import (
	"fmt"
	"sort"
	"strings"

	"docspanner/internal/automata"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// Atom is pred(args...).
type Atom struct {
	Pred string
	Args []spans.Var
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, v := range a.Args {
		parts[i] = string(v)
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Literal is one body element.
type Literal struct {
	// Atom is set for IDB/EDB predicate literals.
	Atom Atom
	// Spanner, when non-nil, makes this a spanner literal: the automaton
	// is evaluated on the document and projected to Atom.Args (which must
	// be a subset of the spanner's variables; Atom.Pred is a label).
	Spanner *automata.NFA
	// StrEq makes this the built-in eq(x, y) literal (Atom.Args has the
	// two variables).
	StrEq bool
	// Negated marks a negated IDB literal (stratified negation; see
	// Stratify). Spanner and eq literals cannot be negated.
	Negated bool
}

// Rule is Head :- Body.
type Rule struct {
	Head Atom
	Body []Literal
}

// Program is a set of rules.
type Program struct {
	Rules []Rule
}

// Validate checks range restriction (every head variable occurs in a
// positive body literal that binds it: a spanner or IDB atom) and that
// eq literals use bound variables.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		bound := map[spans.Var]bool{}
		for _, l := range r.Body {
			if l.StrEq {
				continue
			}
			for _, v := range l.Atom.Args {
				bound[v] = true
			}
		}
		for _, v := range r.Head.Args {
			if !bound[v] {
				return fmt.Errorf("spanlog: head variable %s of %s is not range-restricted", v, r.Head)
			}
		}
		for _, l := range r.Body {
			if l.StrEq {
				if len(l.Atom.Args) != 2 {
					return fmt.Errorf("spanlog: eq takes two arguments")
				}
				for _, v := range l.Atom.Args {
					if !bound[v] {
						return fmt.Errorf("spanlog: eq argument %s is not bound", v)
					}
				}
			}
			if l.Spanner != nil {
				for _, v := range l.Atom.Args {
					if !l.Spanner.Vars.Contains(v) {
						return fmt.Errorf("spanlog: spanner literal %s uses variable %s not bound by the spanner", l.Atom, v)
					}
				}
			}
		}
	}
	return nil
}

// fact is a ground tuple of spans for a predicate.
type fact []spans.Span

func key(f fact) string {
	var sb strings.Builder
	for _, s := range f {
		fmt.Fprintf(&sb, "%d:%d;", s.Begin, s.End)
	}
	return sb.String()
}

// Result holds the fixpoint: for every IDB predicate, its set of facts.
type Result struct {
	doc   []byte
	preds map[string]map[string]fact
}

// Facts returns the facts of a predicate as span tuples over the
// predicate's argument positions named $1, $2, ...; use FactsAs to name
// the columns.
func (r *Result) Facts(pred string) [][]spans.Span {
	m := r.preds[pred]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]spans.Span, 0, len(m))
	for _, k := range keys {
		out = append(out, append([]spans.Span(nil), m[k]...))
	}
	return out
}

// FactsAs returns the facts of a predicate as a spans.Relation with the
// given column names.
func (r *Result) FactsAs(pred string, cols ...spans.Var) *spans.Relation {
	out := spans.NewRelation()
	for _, f := range r.Facts(pred) {
		if len(f) != len(cols) {
			continue
		}
		t := make(spans.Tuple, len(cols))
		for i, v := range cols {
			t[v] = f[i]
		}
		out.Add(t)
	}
	return out
}

// Count returns the number of facts of a predicate.
func (r *Result) Count(pred string) int { return len(r.preds[pred]) }

// Eval computes the fixpoint of the program on the document. Spanner
// literals are materialized once; the strata of the IDB predicates (all
// 0 in a program without negation) are evaluated bottom-up, each by
// iterating its rules until no new facts appear, so negated literals
// only consult fully computed predicates.
func (p *Program) Eval(doc []byte) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.validateNegation(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	maxStratum := 0
	for _, s := range strata {
		if s > maxStratum {
			maxStratum = s
		}
	}

	res := &Result{doc: doc, preds: map[string]map[string]fact{}}

	// Materialize spanner literals (cache by automaton pointer).
	spanRel := map[*automata.NFA]*spans.Relation{}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Spanner != nil && spanRel[l.Spanner] == nil {
				spanRel[l.Spanner] = vset.Eval(l.Spanner, doc, vset.Schemaless)
			}
		}
	}

	add := func(pred string, f fact) bool {
		m := res.preds[pred]
		if m == nil {
			m = map[string]fact{}
			res.preds[pred] = m
		}
		k := key(f)
		if _, ok := m[k]; ok {
			return false
		}
		m[k] = f
		return true
	}

	for s := 0; s <= maxStratum; s++ {
		for changed := true; changed; {
			changed = false
			for _, r := range p.Rules {
				if strata[r.Head.Pred] != s {
					continue
				}
				for _, binding := range p.matchBody(doc, r.Body, spanRel, res) {
					f := make(fact, len(r.Head.Args))
					for i, v := range r.Head.Args {
						f[i] = binding[v]
					}
					if add(r.Head.Pred, f) {
						changed = true
					}
				}
			}
		}
	}
	return res, nil
}

// orderLiterals evaluates binding literals (spanner and IDB atoms) in
// their written order, followed by eq literals and then negations, so
// that filters only run once their variables are bound.
func orderLiterals(body []Literal) []Literal {
	out := make([]Literal, 0, len(body))
	for _, l := range body {
		if !l.StrEq && !l.Negated {
			out = append(out, l)
		}
	}
	for _, l := range body {
		if l.StrEq && !l.Negated {
			out = append(out, l)
		}
	}
	for _, l := range body {
		if l.Negated {
			out = append(out, l)
		}
	}
	return out
}

// matchBody enumerates all variable bindings satisfying the body; a
// negated literal drops the bindings that match one of its facts.
func (p *Program) matchBody(doc []byte, body []Literal, spanRel map[*automata.NFA]*spans.Relation, res *Result) []map[spans.Var]spans.Span {
	bindings := []map[spans.Var]spans.Span{{}}
	for _, l := range orderLiterals(body) {
		var next []map[spans.Var]spans.Span
		switch {
		case l.Negated:
			facts := res.preds[l.Atom.Pred]
			for _, b := range bindings {
				hit := false
				for _, f := range facts {
					if len(f) != len(l.Atom.Args) {
						continue
					}
					match := true
					for i, v := range l.Atom.Args {
						if b[v] != f[i] {
							match = false
							break
						}
					}
					if match {
						hit = true
						break
					}
				}
				if !hit {
					next = append(next, b)
				}
			}
		case l.StrEq:
			for _, b := range bindings {
				x, y := b[l.Atom.Args[0]], b[l.Atom.Args[1]]
				if !x.IsDefined() || !y.IsDefined() {
					continue // unbound: cannot satisfy the equality
				}
				if string(x.Content(doc)) == string(y.Content(doc)) {
					next = append(next, b)
				}
			}
		case l.Spanner != nil:
			rel := spanRel[l.Spanner]
			for _, b := range bindings {
				for _, t := range rel.Tuples() {
					nb, ok := extend(b, l.Atom.Args, func(i int) (spans.Span, bool) {
						s, has := t[l.Atom.Args[i]]
						return s, has
					})
					if ok {
						next = append(next, nb)
					}
				}
			}
		default:
			facts := res.preds[l.Atom.Pred]
			for _, b := range bindings {
				for _, f := range facts {
					if len(f) != len(l.Atom.Args) {
						continue
					}
					nb, ok := extend(b, l.Atom.Args, func(i int) (spans.Span, bool) {
						return f[i], true
					})
					if ok {
						next = append(next, nb)
					}
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			break
		}
	}
	return bindings
}

// extend unifies a binding with values for args; reports failure on
// conflicts or missing values.
func extend(b map[spans.Var]spans.Span, args []spans.Var, val func(int) (spans.Span, bool)) (map[spans.Var]spans.Span, bool) {
	nb := b
	copied := false
	for i, v := range args {
		s, ok := val(i)
		if !ok {
			return nil, false
		}
		if old, bound := nb[v]; bound {
			if old != s {
				return nil, false
			}
			continue
		}
		if !copied {
			c := make(map[spans.Var]spans.Span, len(nb)+1)
			for k2, v2 := range nb {
				c[k2] = v2
			}
			nb = c
			copied = true
		}
		nb[v] = s
	}
	return nb, true
}
