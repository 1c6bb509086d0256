package docspanner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"docspanner/internal/algebra"
	"docspanner/internal/lint"
	"docspanner/internal/plan"
	"docspanner/internal/vset"
)

// PlanOptions tunes the query planner behind Eval, Enumerate, and
// Count. The zero value is the default pipeline: all rewrite passes on,
// automatic backend selection, refl rewriting off.
type PlanOptions struct {
	// DisableRewrites turns off every logical rewrite pass; the plan
	// mirrors the expression tree.
	DisableRewrites bool
	// NaiveBackend forces the materializing reference evaluation for
	// every scan (the planner-off baseline: combined with
	// DisableRewrites it reproduces the classical bottom-up Expr.Eval).
	NaiveBackend bool
	// ReflRewrite opts into rewriting chains of string-equality
	// selections into refl-spanners (the Section 3.2 translation,
	// spanlint's SP007). Applied under functional semantics only.
	ReflRewrite bool
	// MaxFusedStates caps the automata built by the fusion rewrites
	// (default 4096).
	MaxFusedStates int
	// MaxDeterminizeStates is the backend-selection cost gate: a scan
	// whose NFA has more states is evaluated with the materializing
	// backend instead of being determinized (default 4096). The same
	// number budgets the SP009 determinization-blowup lint, which warns
	// when a scan passes this gate on NFA size but its DFA exceeds it.
	MaxDeterminizeStates int
}

// QueryOptions configures query construction (NewQuery).
type QueryOptions struct {
	// AutoToCore lets NewQuery accept refl-spanners by translating them
	// with ToCore into the core algebra automatically (reference-bounded
	// spanners only — the others are provably not core spanners, and
	// NewQuery reports the translation error). A functional refl-spanner
	// keeps its semantics: the translation is evaluated schemaless and
	// the planner filters the root for tuples total on the spanner's
	// variables, which is exactly the refl functional semantics.
	AutoToCore bool
	// Plan tunes the planner for the constructed query.
	Plan PlanOptions
}

// Query is a core-spanner algebra expression over regular spanners:
// primitive spanners combined with union, natural join, projection, and
// string-equality selection (Section 1 of the survey). Evaluation runs
// through the query planner: the expression is lowered to a logical
// plan, rewritten (dead-subtree pruning, duplicate-union elimination,
// selection/projection pushdown, the executable core-simplification
// lemma), and executed with a physical backend chosen per subplan —
// constant-delay enumeration for fused regular parts, materializing
// relational evaluation for the rest. Explain shows the chosen plan;
// WithPlan tunes or disables the planner.
//
// A Query is immutable — the combinators (Union, Join, Project, ...)
// return new queries — and safe for concurrent use: planning is
// memoized under a sync.Once and evaluation keeps its state on the
// stack, so Eval, Enumerate, and Explain may be called from multiple
// goroutines on a shared instance.
type Query struct {
	expr       algebra.Expr
	schemaless bool
	planOpts   PlanOptions
	// requireTotal filters the root result for totality on these
	// variables; used by AutoToCore to give translated functional
	// refl-spanners their semantics.
	requireTotal VarSet

	planOnce sync.Once
	planned  *plan.Planned

	index atomic.Pointer[Index] // see Index: one wrapper per query
}

// Q lifts a compiled regular spanner into a query with default options.
func Q(s *Spanner) (*Query, error) {
	if !s.IsRegular() {
		return nil, fmt.Errorf("docspanner: queries take regular spanners; translate refl-spanners with ToCore first, or use NewQuery with AutoToCore")
	}
	return NewQuery(s, QueryOptions{})
}

// NewQuery lifts a compiled spanner into a query. Regular spanners lift
// directly; refl-spanners are accepted when opts.AutoToCore is set and
// the spanner is reference-bounded (see QueryOptions.AutoToCore).
func NewQuery(s *Spanner, opts QueryOptions) (*Query, error) {
	if s.IsRegular() {
		return &Query{
			expr:       algebra.Prim{A: s.nfa, Src: s.ast},
			schemaless: s.schemaless,
			planOpts:   opts.Plan,
		}, nil
	}
	if !opts.AutoToCore {
		return nil, fmt.Errorf("docspanner: queries take regular spanners; translate refl-spanners with ToCore first, or use NewQuery with AutoToCore")
	}
	e, err := s.rspanner.ToCore()
	if err != nil {
		return nil, fmt.Errorf("docspanner: AutoToCore: %w", err)
	}
	q := &Query{expr: e, schemaless: true, planOpts: opts.Plan}
	if !s.schemaless {
		// ToCore's equivalence holds under the schemaless semantics; the
		// functional refl relation is its restriction to total tuples.
		q.requireTotal = s.Vars()
	}
	return q, nil
}

// MustQ is Q that panics on error.
func MustQ(s *Spanner) *Query {
	q, err := Q(s)
	if err != nil {
		panic(err)
	}
	return q
}

// derive builds a combinator result, carrying the receiver's planner
// options; the schemaless flag and the root totality filter combine by
// union (mixing a schemaless operand in makes the whole query
// schemaless, exactly as before).
func (q *Query) derive(expr algebra.Expr, others ...*Query) *Query {
	nq := &Query{expr: expr, schemaless: q.schemaless, planOpts: q.planOpts, requireTotal: q.requireTotal}
	for _, o := range others {
		nq.schemaless = nq.schemaless || o.schemaless
		nq.requireTotal = nq.requireTotal.Union(o.requireTotal)
	}
	return nq
}

// WithPlan returns a copy of the query with the given planner options
// (the expression is shared; the copy plans independently).
func (q *Query) WithPlan(opts PlanOptions) *Query {
	return &Query{expr: q.expr, schemaless: q.schemaless, planOpts: opts, requireTotal: q.requireTotal}
}

// Vars returns the query's visible variables.
func (q *Query) Vars() VarSet { return q.expr.Vars() }

// Union returns q ∪ other.
func (q *Query) Union(other *Query) *Query {
	return q.derive(algebra.Union{L: q.expr, R: other.expr}, other)
}

// Join returns the natural join q ⋈ other.
func (q *Query) Join(other *Query) *Query {
	return q.derive(algebra.Join{L: q.expr, R: other.expr}, other)
}

// Project returns π_keep(q).
func (q *Query) Project(keep ...Var) *Query {
	return q.derive(algebra.Project{Sub: q.expr, Keep: NewVarSet(keep...)})
}

// SelectEqual returns ς=_z(q): tuples whose spans for all variables in z
// have the same content. This is the operation that takes queries from
// regular to core spanners (Section 2.3).
func (q *Query) SelectEqual(z ...Var) *Query {
	return q.derive(algebra.SelectEq{Sub: q.expr, Z: NewVarSet(z...)})
}

// Fuse applies the column-fusion operator ⨄_{lambda→target} (Section 3.2).
func (q *Query) Fuse(target Var, lambda ...Var) *Query {
	return q.derive(algebra.Fuse{Sub: q.expr, Lambda: NewVarSet(lambda...), Target: target})
}

// IsCore reports whether the query uses string-equality selection ς=
// anywhere, i.e. whether it needs the full core-spanner algebra of
// Section 2.3 rather than the selection-free (regular) fragment.
//
// Polarity convention: IsCore answers "does this query *require* the core
// class?", so true flags the computationally harder class — core-spanner
// containment and equivalence are undecidable (Section 2.4), while the
// regular fragment keeps them decidable. In the survey's terms every
// regular spanner *is* also a core spanner (the classes are nested, not
// disjoint); IsCore() == false therefore does not mean "not a core
// spanner" but "already expressible without selections". IsRegular is the
// exact negation. Contrast with Spanner.Hierarchical, where true flags
// the benign property.
func (q *Query) IsCore() bool { return algebra.HasSelections(q.expr) }

// IsRegular reports whether the query stays inside the regular-spanner
// fragment: no string-equality selection anywhere, so the whole query
// compiles to a single vset-automaton (via Normalize) with zero residual
// selections, and equivalence and containment remain decidable. It is
// defined as the exact negation of IsCore, mirroring Spanner.IsRegular.
func (q *Query) IsRegular() bool { return !q.IsCore() }

// Lint runs the spanlint static-analysis passes over the query and
// returns the diagnostics, sorted by position path ("$" is the root,
// "$.L"/"$.R"/"$.Sub" descend into operands). An empty slice means the
// query is lint-clean. Safe to call concurrently on a shared query.
//
// Two layers of passes run: the expression passes (SP001–SP008), which
// judge what the query says, and the plan passes (SP009–SP010), which
// judge what the planner's chosen physical plan will cost under this
// query's PlanOptions — a join the rewriter fused away is free and not
// reported, and a determinization blowup is reported only if backend
// selection will actually determinize. Calling Lint plans the query
// (the query keeps its plan, so this costs nothing extra when the query
// is later evaluated).
func (q *Query) Lint() []Diagnostic {
	diags := lint.Expr(q.expr, q.schemaless)
	diags = append(diags, q.plan().Lint()...)
	lint.Sort(diags)
	return diags
}

// plan lowers and rewrites the query into its execution plan, once per
// query. The plan — and with it the determinized automata and the
// compressed-evaluation index — belongs to the query and is freed with
// it.
func (q *Query) plan() *plan.Planned {
	q.planOnce.Do(func() {
		q.planned = plan.New(q.expr, q.planOptions())
	})
	return q.planned
}

func (q *Query) planOptions() plan.Options {
	return plan.Options{
		Schemaless:           q.schemaless,
		DisableRewrites:      q.planOpts.DisableRewrites,
		ReflRewrite:          q.planOpts.ReflRewrite,
		NaiveBackend:         q.planOpts.NaiveBackend,
		MaxFusedStates:       q.planOpts.MaxFusedStates,
		MaxDeterminizeStates: q.planOpts.MaxDeterminizeStates,
		RequireTotal:         q.requireTotal,
	}
}

// Source is a document as evaluation receives it: plain bytes (Text) or
// an SLP-compressed Document (Compressed). The survey states one
// evaluation problem — enumerate ⟦S⟧(D) — and Section 4 only changes how
// D is given, so a Query has one evaluation path over a Source; the
// []byte and *Document methods below are conveniences over it.
type Source = plan.Source

// Text is the Source of a plain document.
func Text(doc []byte) Source { return plan.Text(doc) }

// Compressed is the Source of an SLP-compressed document. Fused regular
// subplans run on the grammar and never decompress; operators that
// genuinely need the text — string-equality selections, refl scans —
// obtain it from text, or, when text is nil, from one lazy
// decompression shared by the whole evaluation. Pass a provider when
// the decompressed text is already cached elsewhere.
func Compressed(d *Document, text func() []byte) Source { return plan.SLP(d.Node(), text) }

// EnumerateSource streams the query's result tuples on src without
// materializing intermediate relations where the plan allows it (a
// query fused to a single automaton streams with constant delay on
// text and logarithmic delay on a compressed document; plans with
// residual algebra materialize below the root). Return false from f to
// stop early. The enumeration also stops as soon as ctx is cancelled or
// its deadline passes, and the context's error is returned (nil on
// completion or early stop by f).
//
// Cancellation contract: the context is checked before the enumeration
// starts and then between consecutive tuples (a non-blocking poll of
// ctx.Done, cheap next to the per-tuple work of any backend), so on a
// streaming plan (Streaming() == true) cancellation is observed within
// one tuple's delay. A plan with residual algebra materializes below the
// root before its first tuple; its operators make the same poll once
// every 1024 rows they read or emit, so a deadline that falls inside a
// join is observed there, no tuple is delivered, and the context's error
// is returned. The configuration search of a naive or refl-spanner scan
// makes the same poll once every 1024 configurations it expands, so a
// search that finds no tuple for a long while stops there too. A nil ctx
// behaves like context.Background().
func (q *Query) EnumerateSource(ctx context.Context, src Source, f func(t Tuple) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	poll := ctxPoll{done: ctx.Done()}
	q.plan().Enumerate(src, poll.ok, func(t Tuple) bool { return poll.ok() && f(t) })
	if poll.cancelled {
		return ctx.Err()
	}
	return nil
}

// ctxPoll is a context as evaluation's cancellation hook: ok is a
// non-blocking poll of Done, and cancelled records that it has failed.
type ctxPoll struct {
	done      <-chan struct{}
	cancelled bool
}

func (p *ctxPoll) ok() bool {
	select {
	case <-p.done:
		p.cancelled = true
		return false
	default:
		return true
	}
}

// CountSource returns the number of result tuples on src, under the
// cancellation contract of EnumerateSource; on cancellation the partial
// count so far is returned alongside the context's error. Single-scan
// plans count through the tuple-free walks — no tuples are built, the
// context is polled per counted tuple. Plans with residual algebra count
// the rows of the root relation, again without building a tuple; cancelled
// inside an operator they have no partial count and return zero.
func (q *Query) CountSource(ctx context.Context, src Source) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	poll := ctxPoll{done: ctx.Done()}
	n, complete := q.plan().CountPoll(src, poll.ok)
	if !complete {
		return n, ctx.Err()
	}
	return n, nil
}

// Eval materializes the query result on doc, executing the planned
// physical operators.
func (q *Query) Eval(doc []byte) *Relation { return q.plan().Eval(Text(doc)) }

// Enumerate is EnumerateSource on plain text, without cancellation.
func (q *Query) Enumerate(doc []byte, f func(t Tuple) bool) { q.plan().Enumerate(Text(doc), nil, f) }

// Count returns the number of result tuples on doc.
func (q *Query) Count(doc []byte) int {
	n, _ := q.plan().CountPoll(Text(doc), nil)
	return n
}

// EnumerateContext is EnumerateSource on plain text.
func (q *Query) EnumerateContext(ctx context.Context, doc []byte, f func(t Tuple) bool) error {
	return q.EnumerateSource(ctx, Text(doc), f)
}

// CountContext is CountSource on plain text.
func (q *Query) CountContext(ctx context.Context, doc []byte) (int, error) {
	return q.CountSource(ctx, Text(doc))
}

// Streaming reports whether Enumerate on this query yields tuples
// incrementally (the plan's root is a streaming operator) rather than
// materializing the full relation first.
func (q *Query) Streaming() bool { return q.plan().Streaming() }

// Explain renders the query's execution plan: the rewritten logical
// shape, the physical backend per node, and the rewrite provenance each
// pass recorded. The format is human-oriented and not stable across
// releases.
func (q *Query) Explain() string { return q.plan().Explain() }

// EvalNaive is the planner-free reference evaluation (classical
// bottom-up materialization of the expression tree). It is the baseline
// the rewrite passes are validated against; prefer Eval.
func (q *Query) EvalNaive(doc []byte) *Relation {
	sem := vset.Functional
	if q.schemaless {
		sem = vset.Schemaless
	}
	out := q.expr.Eval(doc, sem)
	if len(q.requireTotal) > 0 {
		filtered := NewRelation()
		for _, t := range out.Tuples() {
			if t.TotalOn(q.requireTotal) {
				filtered.Add(t)
			}
		}
		out = filtered
	}
	return out
}

// String renders the expression tree.
func (q *Query) String() string { return algebra.String(q.expr) }

// NormalForm is the core-simplification normal form
// π_Visible(ς=_{Z1} ... ς=_{Zk}(⟦M⟧)) of a query (Section 2.3). Like
// Query it is immutable after construction and safe for concurrent Eval.
// It satisfies Evaluator, so it can be compared against spanners and
// queries with EquivalentUpTo.
type NormalForm struct {
	cf           *algebra.CoreForm
	schemaless   bool
	requireTotal VarSet
}

var _ Evaluator = (*NormalForm)(nil)
var _ Evaluator = (*Query)(nil)

// Normalize rewrites the query into core-simplification normal form: a
// single vset-automaton, a list of string-equality selections over
// auxiliary variables, and one outer projection.
func (q *Query) Normalize() (*NormalForm, error) {
	cf, err := algebra.Simplify(q.expr)
	if err != nil {
		return nil, err
	}
	return &NormalForm{cf: cf, schemaless: q.schemaless, requireTotal: q.requireTotal}, nil
}

// Eval evaluates the normal form (must agree with Query.Eval — the
// content of the core-simplification lemma).
func (nf *NormalForm) Eval(doc []byte) *Relation {
	sem := vset.Functional
	if nf.schemaless {
		sem = vset.Schemaless
	}
	out := nf.cf.Eval(doc, sem)
	if len(nf.requireTotal) > 0 {
		filtered := NewRelation()
		for _, t := range out.Tuples() {
			if t.TotalOn(nf.requireTotal) {
				filtered.Add(t)
			}
		}
		out = filtered
	}
	return out
}

// Selections returns the number of string-equality selections.
func (nf *NormalForm) Selections() int { return len(nf.cf.Selections) }

// AutomatonStates returns the size of the single underlying automaton.
func (nf *NormalForm) AutomatonStates() int { return nf.cf.Automaton.NumStates() }

// Visible returns the visible (projected) variables.
func (nf *NormalForm) Visible() VarSet { return nf.cf.Visible }
