package plan

import (
	"sync"
	"sync/atomic"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/lint"
	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// Source is a document as evaluation receives it: plain bytes, or the
// root of an SLP together with a provider of its text. It is the only
// thing evaluation takes — Section 4 of the survey changes how D is
// given, not what ⟦S⟧(D) is — and the scan operator picks its engine
// (enum over bytes, slpmatch over the grammar) from the source it is
// handed. A Source is a small value; copies share the text provider.
type Source struct {
	plain []byte
	root  *slp.Node
	// text is non-nil exactly for SLP sources. Only operators that
	// genuinely need the raw text call it (string-equality selections,
	// external spanners, naive scans).
	text func() []byte
}

// Text is the source of a plain document.
func Text(doc []byte) Source { return Source{plain: doc} }

// SLP is the source of an SLP-compressed document. text supplies the
// decompressed document and must be safe to call repeatedly (callers
// holding a cached copy pass it here); nil decompresses root at most
// once, on first use.
func SLP(root *slp.Node, text func() []byte) Source {
	if text == nil {
		var once sync.Once
		var b []byte
		text = func() []byte {
			once.Do(func() { b = root.Bytes() })
			return b
		}
	}
	return Source{root: root, text: text}
}

// Bytes returns the document text, decompressing an SLP source through
// its provider.
func (s Source) Bytes() []byte {
	if s.text != nil {
		return s.text()
	}
	return s.plain
}

// physNode is a physical operator, evaluated against a Source.
type physNode interface {
	lp() *algebra.Plan
	children() []physNode
	backend() string
	// streaming reports whether each() yields tuples incrementally
	// (constant or polynomial delay) rather than materializing first.
	streaming() bool
	// rows materializes the node's relation in positional form for the
	// operator above it; each yields its tuples, reporting false when f
	// stopped it. poll (nil for none) is the cancellation hook of whatever
	// materializes or searches: it runs once every spans.PollEvery rows or
	// search configurations, and a node it stops returns nil rows, or
	// false from each without a further call of f. A constant-delay each
	// materializes nothing and leaves polling to f.
	rows(src Source, poll func() bool) *spans.Rows
	each(src Source, poll func() bool, f func(spans.Tuple) bool) bool
}

// collectRows reads a leaf's distinct tuples into rows at the leaf.
func collectRows(n physNode, src Source, poll func() bool) *spans.Rows {
	out := spans.NewRows(n.lp().Vars())
	complete := n.each(src, poll, func(t spans.Tuple) bool {
		out.AppendTuple(t)
		return out.Len()%spans.PollEvery != 0 || poll == nil || poll()
	})
	if !complete {
		return nil
	}
	return out
}

// buildPhys selects a backend per logical node: scans become
// constant-delay enumerators (or naive automaton searches when forced
// by options, by reference transitions, or by the determinization cost
// gate), external spanners call out to their own search, and interior
// operators materialize their children's relations.
func buildPhys(p *algebra.Plan, opts Options) physNode {
	switch p.Kind {
	case algebra.PScan:
		naive := opts.NaiveBackend || p.Auto.HasRefs() || p.Auto.NumStates() > opts.maxDeterminize()
		return &scanPhys{plan: p, functional: !opts.Schemaless, naive: naive}
	case algebra.PExtScan:
		return &extScanPhys{plan: p, functional: !opts.Schemaless}
	case algebra.PEmpty:
		return &emptyPhys{plan: p}
	default:
		kids := make([]physNode, len(p.Children))
		for i, c := range p.Children {
			kids[i] = buildPhys(c, opts)
		}
		return &matPhys{plan: p, kids: kids}
	}
}

// stopAware adapts a yield to the engines' callbacks, recording in
// *stopped whether f ended the enumeration early.
func stopAware(f func(spans.Tuple) bool, stopped *bool) func(spans.Tuple) bool {
	return func(t spans.Tuple) bool {
		*stopped = !f(t)
		return !*stopped
	}
}

// scanPhys runs a single vset-automaton. A constant-delay scan owns its
// deterministic automaton and its one compressed-evaluation index, each
// built on first use: every evaluation of the plan — and whoever takes
// the index through Planned.Index — works on the same tables.
type scanPhys struct {
	plan       *algebra.Plan
	functional bool
	naive      bool

	devaOnce sync.Once
	deva     *automata.DEVA
	ixOnce   sync.Once
	ix       atomic.Pointer[slpmatch.Index] // stored under ixOnce; Flush and Retain peek without building
}

func (s *scanPhys) dEVA() *automata.DEVA {
	s.devaOnce.Do(func() { s.deva = automata.DeterminizeCached(s.plan.Auto) })
	return s.deva
}

func (s *scanPhys) index() *slpmatch.Index {
	s.ixOnce.Do(func() { s.ix.Store(slpmatch.NewIndex(s.dEVA())) })
	return s.ix.Load()
}

func (s *scanPhys) lp() *algebra.Plan    { return s.plan }
func (s *scanPhys) children() []physNode { return nil }
func (s *scanPhys) streaming() bool      { return !s.naive }

func (s *scanPhys) backend() string {
	if s.naive {
		return "nfa-search"
	}
	return "constant-delay"
}

func (s *scanPhys) sem() vset.Semantics {
	if s.functional {
		return vset.Functional
	}
	return vset.Schemaless
}

func (s *scanPhys) rows(src Source, poll func() bool) *spans.Rows {
	return collectRows(s, src, poll)
}

func (s *scanPhys) each(src Source, poll func() bool, f func(spans.Tuple) bool) bool {
	if s.naive {
		return vset.Search(s.plan.Auto, src.Bytes(), s.sem(), nil, poll, f)
	}
	stopped := false
	if src.text != nil {
		s.index().Each(src.root, func(t spans.Tuple) bool {
			if s.functional && !t.TotalOn(s.plan.Auto.Vars) {
				return true
			}
			stopped = !f(t)
			return !stopped
		})
		return !stopped
	}
	e := enum.NewEnumerator(s.dEVA(), src.plain)
	if s.functional {
		e.EachTotal(s.plan.Auto.Vars, stopAware(f, &stopped))
	} else {
		e.Each(stopAware(f, &stopped))
	}
	return !stopped
}

// extScanPhys streams an external (refl) spanner through its Each.
type extScanPhys struct {
	plan       *algebra.Plan
	functional bool
}

func (x *extScanPhys) lp() *algebra.Plan    { return x.plan }
func (x *extScanPhys) children() []physNode { return nil }
func (x *extScanPhys) backend() string      { return "refl-search" }
func (x *extScanPhys) streaming() bool      { return true }

func (x *extScanPhys) rows(src Source, poll func() bool) *spans.Rows {
	return collectRows(x, src, poll)
}

func (x *extScanPhys) each(src Source, poll func() bool, f func(spans.Tuple) bool) bool {
	return x.plan.Ext.Each(src.Bytes(), x.functional, poll, f)
}

// emptyPhys is a pruned subtree.
type emptyPhys struct {
	plan *algebra.Plan
}

func (e *emptyPhys) lp() *algebra.Plan    { return e.plan }
func (e *emptyPhys) children() []physNode { return nil }
func (e *emptyPhys) backend() string      { return "empty" }
func (e *emptyPhys) streaming() bool      { return true }

func (e *emptyPhys) rows(Source, func() bool) *spans.Rows                  { return spans.NewRows(e.plan.Schema) }
func (e *emptyPhys) each(Source, func() bool, func(spans.Tuple) bool) bool { return true }

// matPhys evaluates an algebra operator on the positional relations
// (spans.Rows) of its children — whatever algebraic structure survives the
// rewrites. Scans are read into rows at the leaves, every interior operator
// works on positions (hash join, column selection and remapping, hashed
// duplicate removal), and map tuples are built only where the root hands
// its rows out. One shape is not evaluated bottom-up: string-equality
// selections directly over a join run inside it (selectedJoin), so what is
// materialized is the equi-join on factor content, not the join below it.
type matPhys struct {
	plan *algebra.Plan
	kids []physNode
}

func (m *matPhys) lp() *algebra.Plan    { return m.plan }
func (m *matPhys) children() []physNode { return m.kids }
func (m *matPhys) backend() string      { return "materialize" }
func (m *matPhys) streaming() bool      { return false }

func (m *matPhys) each(src Source, poll func() bool, f func(spans.Tuple) bool) bool {
	rows := m.rows(src, poll)
	if rows == nil {
		return false
	}
	for i := 0; i < rows.Len(); i++ {
		if !f(rows.Tuple(i)) {
			return false
		}
	}
	return true
}

// selectedJoin returns, for a selection at the top of a chain of
// selections directly over a join, that join and the chain's classes.
func (m *matPhys) selectedJoin() (join *matPhys, classes []spans.VarSet) {
	for m.plan.Kind == algebra.PSelect {
		classes = append(classes, m.plan.Z)
		kid, ok := m.kids[0].(*matPhys)
		if !ok {
			return nil, nil
		}
		m = kid
	}
	if m.plan.Kind != algebra.PJoin || len(m.kids) < 2 {
		return nil, nil
	}
	return m, classes
}

// equiJoinKey reports, for EXPLAIN, whether m is a selection the join
// below it takes into its hash key, and on the content of which variables.
func (m *matPhys) equiJoinKey() (lv, rv spans.Var, ok bool) {
	if m.plan.Kind != algebra.PSelect {
		return "", "", false
	}
	join, _ := m.selectedJoin()
	if join == nil {
		return "", "", false
	}
	last := len(join.kids) - 1
	var left spans.VarSet
	for _, k := range join.kids[:last] {
		left = left.Union(k.lp().Vars())
	}
	return spans.EquiJoinKey(left, join.kids[last].lp().Vars(), m.plan.Z)
}

func (m *matPhys) rows(src Source, poll func() bool) *spans.Rows {
	switch m.plan.Kind {
	case algebra.PUnion:
		return m.fold(src, poll, func(acc, r *spans.Rows, _ bool) *spans.Rows { return acc.Union(r, poll) })
	case algebra.PJoin:
		return m.join(src, poll, nil)
	case algebra.PSelect:
		if join, classes := m.selectedJoin(); join != nil {
			return join.join(src, poll, classes)
		}
	}
	in := m.kids[0].rows(src, poll)
	if in == nil {
		return nil
	}
	switch m.plan.Kind {
	case algebra.PProject:
		return in.Project(m.plan.Keep, poll)
	case algebra.PSelect:
		return in.SelectEqual(src.Bytes(), m.plan.Z, poll)
	case algebra.PFuse:
		return in.Fuse(m.plan.Lambda, m.plan.Target, poll)
	}
	panic("plan: materializing backend: unexpected kind " + m.plan.Kind.String())
}

// join evaluates a join and the selections of selectedJoin over it. The
// classes constrain the whole join, so they go into the last step of the
// fold. A selection compares substrings of the document: it is the one
// interior operator that asks an SLP source for its text.
func (m *matPhys) join(src Source, poll func() bool, classes []spans.VarSet) *spans.Rows {
	return m.fold(src, poll, func(acc, r *spans.Rows, last bool) *spans.Rows {
		if !last || len(classes) == 0 {
			return acc.Join(r, poll)
		}
		return acc.JoinSelect(r, src.Bytes(), classes, poll)
	})
}

// fold combines the operands' relations left to right; last marks the
// final step.
func (m *matPhys) fold(src Source, poll func() bool, op func(acc, r *spans.Rows, last bool) *spans.Rows) *spans.Rows {
	acc := m.kids[0].rows(src, poll)
	for i, k := range m.kids[1:] {
		if acc == nil {
			return nil
		}
		r := k.rows(src, poll)
		if r == nil {
			return nil
		}
		acc = op(acc, r, i == len(m.kids)-2)
	}
	return acc
}

// Planned is an executable plan: the rewritten logical tree plus the
// physical operators chosen for it. It is safe for concurrent use.
type Planned struct {
	logical      *algebra.Plan
	root         physNode
	opts         Options
	passNotes    []string
	requireTotal spans.VarSet

	lintOnce  sync.Once
	lintDiags []lint.Diagnostic
}

// Lint runs the plan-level spanlint passes (SP009, SP010) over the
// rewritten logical plan, configured with this plan's options so the
// cost thresholds match what evaluation will actually do. The result is
// computed once per plan.
func (pl *Planned) Lint() []lint.Diagnostic {
	pl.lintOnce.Do(func() {
		pl.lintDiags = lint.PlanDiags(pl.logical, lint.PlanConfig{
			MaxDeterminizeStates: pl.opts.MaxDeterminizeStates,
			Schemaless:           pl.opts.Schemaless,
		})
	})
	return pl.lintDiags
}

// Logical exposes the rewritten logical plan (EXPLAIN, tests).
func (pl *Planned) Logical() *algebra.Plan { return pl.logical }

// Passes lists the rewrite passes that changed the plan, in order.
func (pl *Planned) Passes() []string { return pl.passNotes }

// Streaming reports whether Enumerate yields tuples incrementally
// rather than materializing the full relation first.
func (pl *Planned) Streaming() bool { return pl.root.streaming() }

// Eval materializes the plan's relation on src.
func (pl *Planned) Eval(src Source) *spans.Relation {
	out := spans.NewRelation()
	pl.Enumerate(src, nil, func(t spans.Tuple) bool { out.Add(t); return true })
	return out
}

// Enumerate streams the plan's tuples on src; f returning false stops
// the enumeration early. On an SLP source the raw text is only
// decompressed if an operator requires it. poll, if non-nil, is the
// cancellation hook for what a plan with residual algebra materializes
// before its first tuple and for the configuration searches of naive and
// refl scans: the operators call it once every spans.PollEvery rows they
// read or emit, the searches once every spans.PollEvery configurations,
// and when it returns false the enumeration ends without a further call
// of f. Between tuples f is the hook. Enumerate reports whether it
// finished: false when f or poll stopped it.
func (pl *Planned) Enumerate(src Source, poll func() bool, f func(spans.Tuple) bool) bool {
	if rt := pl.requireTotal; len(rt) > 0 {
		yield := f
		f = func(t spans.Tuple) bool { return !t.TotalOn(rt) || yield(t) }
	}
	return pl.root.each(src, poll, f)
}

// CountPoll counts result tuples without materializing them whenever the
// plan is a single constant-delay scan. On a plain source such plans
// first try the counting DP of internal/enum — output-independent time,
// no preprocessing tables — and fall back to the mask-accumulating
// enumeration walk when the DP declines (a count of run prefixes that
// overflows int64); on an SLP source they count through the compressed
// index's tuple-free walk. poll, if non-nil, is the cancellation hook of
// the service layer: it runs once every 4096 document positions on the DP
// path and once per counted tuple on the walk paths;
// returning false aborts the count, reporting complete=false with the
// partial count (zero on the DP path — it counts nothing until it
// finishes). A plan with residual algebra counts the rows of its root
// relation and builds no tuple; poll runs inside its operators as in
// Enumerate, and an aborted count is zero. The remaining scans (naive,
// refl) count their search's tuples, polled inside the search as in
// Enumerate and once per counted tuple.
func (pl *Planned) CountPoll(src Source, poll func() bool) (int, bool) {
	if s, ok := pl.root.(*scanPhys); ok && !s.naive {
		// Tuples must be total on the plan-level requirement plus, under
		// functional semantics, the automaton's variables.
		vars := pl.requireTotal
		if s.functional {
			vars = vars.Union(s.plan.Auto.Vars)
		}
		if src.text != nil {
			return s.index().CountTotal(src.root, vars, poll)
		}
		d := s.dEVA()
		if n, complete, ok := enum.CountTotalFast(d, src.plain, vars, poll); ok {
			return n, complete
		}
		return enum.NewEnumerator(d, src.plain).CountTotal(vars, poll)
	}
	if m, ok := pl.root.(*matPhys); ok {
		rows := m.rows(src, poll)
		if rows == nil {
			return 0, false
		}
		return rows.CountTotal(pl.requireTotal), true
	}
	n := 0
	complete := pl.Enumerate(src, poll, func(spans.Tuple) bool {
		n++
		return poll == nil || poll()
	})
	return n, complete
}

// singleScan returns the plan's root when the whole plan collapsed to
// one constant-delay regular scan with no root filter.
func (pl *Planned) singleScan() (*scanPhys, bool) {
	s, ok := pl.root.(*scanPhys)
	return s, ok && !s.naive && len(pl.requireTotal) == 0
}

// SingleScan reports whether the whole plan collapsed to one regular
// scan and, if so, returns its automaton.
func (pl *Planned) SingleScan() (*automata.NFA, bool) {
	s, ok := pl.singleScan()
	if !ok {
		return nil, false
	}
	return s.plan.Auto, true
}

// Index returns the compressed-evaluation index of a single-scan plan
// (ok=false for any other shape): the same instance evaluation on SLP
// sources uses, so warming it, maintaining it across edits and flushing
// it act on the tables Eval, Enumerate and CountPoll read.
func (pl *Planned) Index() (*slpmatch.Index, bool) {
	s, ok := pl.singleScan()
	if !ok {
		return nil, false
	}
	return s.index(), true
}

// builtIndexes calls f on the compressed-evaluation index of every scan
// of the plan, at the root or under materializing operators, that
// evaluation has built; it builds none.
func (pl *Planned) builtIndexes(f func(*slpmatch.Index)) {
	var walk func(n physNode)
	walk = func(n physNode) {
		if s, ok := n.(*scanPhys); ok {
			if ix := s.ix.Load(); ix != nil {
				f(ix)
			}
		}
		for _, c := range n.children() {
			walk(c)
		}
	}
	walk(pl.root)
}

// Flush empties in place the tables of every index the plan's scans
// have built; it never builds one.
func (pl *Planned) Flush() { pl.builtIndexes((*slpmatch.Index).Flush) }

// Retain sweeps every index the plan's scans have built, forgetting the
// nodes no root of live reaches (see slpmatch.Index.Retain), and returns
// how many nodes they forgot.
func (pl *Planned) Retain(live []*slp.Node) int {
	n := 0
	pl.builtIndexes(func(ix *slpmatch.Index) { n += ix.Retain(live) })
	return n
}

// Elements reports the interned values in the element tables of every
// index the plan's scans have built (see slpmatch.Index.Elements).
func (pl *Planned) Elements() int {
	n := 0
	pl.builtIndexes(func(ix *slpmatch.Index) { n += ix.Elements() })
	return n
}

// CachedNodes reports the inner SLP nodes cached over every index the
// plan's scans have built.
func (pl *Planned) CachedNodes() int {
	n := 0
	pl.builtIndexes(func(ix *slpmatch.Index) { n += ix.CachedNodes() })
	return n
}
