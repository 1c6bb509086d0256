// Package docspanner is a library for information extraction with
// document spanners, implementing the framework surveyed by Schmid and
// Schweikardt, "Document Spanners — A Brief Overview of Concepts, Results,
// and Recent Developments" (PODS 2022), which goes back to Fagin,
// Kimelfeld, Reiss, and Vansummeren (J. ACM 2015).
//
// A document spanner maps a document D ∈ Σ* to a relation of span tuples:
// assignments of intervals [i,j⟩ of D to capture variables. This package
// provides:
//
//   - a spanner regex dialect with variable bindings !x{...} and
//     references &x, compiled to vset-automata (regular spanners) or
//     ref-automata (refl-spanners);
//   - evaluation, duplicate-free enumeration with linear preprocessing
//     and constant delay, and the decision problems ModelChecking,
//     NonEmptiness, Satisfiability, Hierarchicality, Containment, and
//     Equivalence;
//   - the core-spanner algebra (union, natural join, projection,
//     string-equality selection) with the core-simplification lemma as an
//     executable rewrite;
//   - evaluation over SLP-compressed documents: membership, enumeration
//     with logarithmic delay, and complex document editing in logarithmic
//     time per operation.
//
// The subsystem packages under internal/ (automata, algebra, enum, refl,
// slp, slpmatch, spanlog, cfg, ...) carry the full machinery; this package
// is the stable facade.
package docspanner

import (
	"fmt"
	"math/big"
	"sync"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/lint"
	"docspanner/internal/plan"
	"docspanner/internal/refl"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/split"
	"docspanner/internal/vset"
)

// Re-exported core data model types.
type (
	// Span is an interval [Begin,End⟩ of a document (1-based, End
	// exclusive), denoting the factor doc[Begin-1 : End-1].
	Span = spans.Span
	// Var is a capture variable.
	Var = spans.Var
	// VarSet is a canonical (sorted, deduplicated) set of variables.
	VarSet = spans.VarSet
	// Tuple maps variables to spans; variables may be unassigned under
	// the schemaless semantics.
	Tuple = spans.Tuple
	// Relation is a set of span tuples.
	Relation = spans.Relation
)

// NewSpan constructs the span [begin,end⟩.
func NewSpan(begin, end int) Span { return spans.S(begin, end) }

// NewVarSet builds a canonical variable set.
func NewVarSet(vars ...Var) VarSet { return spans.NewVarSet(vars...) }

// NewRelation returns a relation containing the given tuples (with
// duplicates removed).
func NewRelation(tuples ...Tuple) *Relation { return spans.NewRelation(tuples...) }

// SortTuples sorts ts in place into the canonical order Relation.Sorted
// uses — the deterministic presentation of enumeration output collected
// without going through a Relation.
func SortTuples(ts []Tuple) { spans.SortTuples(ts) }

// Options configures compilation.
type Options struct {
	// Alphabet is the document alphabet Σ; it resolves the wildcard .
	// and negated classes. Defaults to the letters mentioned in the
	// pattern (or printable ASCII if none).
	Alphabet []byte
	// Schemaless switches result semantics to partial tuples: variables
	// bound only on some alternatives stay unassigned instead of
	// invalidating the match.
	Schemaless bool
}

// Spanner is a compiled document spanner: regular (no references) or a
// refl-spanner (with references &x).
//
// A compiled Spanner is immutable and safe for concurrent use by multiple
// goroutines: all evaluation methods (Eval, Enumerate, Count, ModelCheck,
// NonEmpty, ExactCount, ...) may be called simultaneously on a shared
// instance. The lazy determinization used by the enumeration methods is
// guarded internally and runs at most once.
type Spanner struct {
	pattern    string
	nfa        *automata.NFA
	ast        regex.Node    // nil for derived spanners (e.g. Difference)
	rspanner   *refl.Spanner // non-nil iff the pattern has references
	schemaless bool

	planOnce sync.Once
	planned  *plan.Planned

	indexOnce sync.Once
	index     *Index
}

// Compile parses and compiles a spanner pattern, e.g.
//
//	s, err := docspanner.Compile(`!key{[a-z]+}=!val{[0-9]+}`, docspanner.Options{})
//
// Patterns with references (&x) compile to refl-spanners; everything else
// compiles to a regular spanner (a vset-automaton).
func Compile(pattern string, opts Options) (*Spanner, error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	nfa, err := regex.Compile(ast, regex.Options{Alphabet: opts.Alphabet})
	if err != nil {
		return nil, err
	}
	return newSpanner(&Spanner{pattern: pattern, nfa: nfa, ast: ast, schemaless: opts.Schemaless})
}

// newSpanner checks s's automaton under s's semantics — a functional
// spanner must assign every variable on every accepting path, with or
// without references — and wraps an automaton with references as a
// refl-spanner.
func newSpanner(s *Spanner) (*Spanner, error) {
	if err := s.nfa.Validate(!s.schemaless); err != nil {
		return nil, err
	}
	if s.nfa.HasRefs() {
		rs, err := refl.New(s.nfa)
		if err != nil {
			return nil, err
		}
		s.rspanner = rs
	}
	return s, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(pattern string, opts Options) *Spanner {
	s, err := Compile(pattern, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Pattern returns the source pattern.
func (s *Spanner) Pattern() string { return s.pattern }

// Vars returns the spanner's capture variables.
func (s *Spanner) Vars() VarSet { return s.nfa.Vars }

// IsRegular reports whether the spanner is a regular spanner (as opposed
// to a refl-spanner with references).
func (s *Spanner) IsRegular() bool { return s.rspanner == nil }

func (s *Spanner) semantics() vset.Semantics {
	if s.schemaless {
		return vset.Schemaless
	}
	return vset.Functional
}

// dEVA determinizes the automaton (query complexity only), memoized on
// the immutable NFA: a compiled spanner shared across goroutines — and
// every query plan scanning the same automaton — determinizes exactly
// once.
func (s *Spanner) dEVA() *automata.DEVA {
	return automata.DeterminizeCached(s.nfa)
}

// plan lowers the spanner into its (trivial, single-scan) execution
// plan, once per spanner. Routing the Spanner methods through the
// planner keeps one evaluation path for the whole facade: a regular
// spanner plans to a constant-delay scan, a refl-spanner to an external
// scan over its configuration search — exactly the previous behavior.
func (s *Spanner) plan() *plan.Planned {
	s.planOnce.Do(func() {
		opts := plan.Options{Schemaless: s.schemaless}
		if s.rspanner != nil {
			s.planned = plan.NewExternal(s.rspanner, opts)
		} else {
			s.planned = plan.New(algebra.Prim{A: s.nfa, Src: s.ast}, opts)
		}
	})
	return s.planned
}

// Eval materializes the full span relation on doc.
func (s *Spanner) Eval(doc []byte) *Relation {
	return s.plan().Eval(Text(doc))
}

// Explain renders the spanner's execution plan — the logical shape, the
// physical backend, and any rewrite provenance — in the same format as
// Query.Explain. Human-oriented; not stable across releases.
func (s *Spanner) Explain() string { return s.plan().Explain() }

// Enumerate streams the result tuples without duplicates; for regular
// spanners it uses the linear-preprocessing/constant-delay algorithm
// (Section 2.5 of the survey). Return false from f to stop early. Early
// termination saves work for both classes: regular spanners stop the
// constant-delay walk, and refl-spanners abort the configuration search
// instead of materializing the full relation first.
func (s *Spanner) Enumerate(doc []byte, f func(Tuple) bool) {
	s.plan().Enumerate(Text(doc), nil, f)
}

// Count returns the number of result tuples on doc.
func (s *Spanner) Count(doc []byte) int {
	n, _ := s.plan().CountPoll(Text(doc), nil)
	return n
}

// ModelCheck decides t ∈ S(doc) — linear in |doc| for both regular and
// refl-spanners (Sections 2.4 and 3.3).
func (s *Spanner) ModelCheck(doc []byte, t Tuple) (bool, error) {
	if s.rspanner != nil {
		return s.rspanner.ModelCheck(doc, t, !s.schemaless)
	}
	return vset.ModelCheck(s.nfa, doc, t, s.semantics())
}

// NonEmpty decides S(doc) ≠ ∅. Polynomial for regular spanners; NP-hard
// in general for refl-spanners (Section 3.3).
func (s *Spanner) NonEmpty(doc []byte) bool {
	if s.rspanner != nil {
		return s.rspanner.NonEmpty(doc)
	}
	return vset.NonEmpty(s.nfa, doc)
}

// Satisfiable decides whether any document yields a result.
func (s *Spanner) Satisfiable() bool {
	if s.rspanner != nil {
		return s.rspanner.Satisfiable()
	}
	return vset.Satisfiable(s.nfa)
}

// Witness returns a document and tuple witnessing satisfiability.
func (s *Spanner) Witness() (doc []byte, t Tuple, ok bool) {
	if s.rspanner != nil {
		return s.rspanner.Witness()
	}
	return vset.Witness(s.nfa)
}

// Hierarchical decides the Hierarchicality problem of Section 2.4: it
// returns true exactly when every tuple the spanner extracts, from any
// document, has pairwise disjoint-or-nested spans (Section 2.2). The
// polarity follows the property name — true means "is hierarchical", the
// benign case; false means some document admits a tuple with properly
// overlapping spans. Note the contrast with Query.IsCore, whose true
// answer flags the *harder* class. Regular spanners only; refl-spanners
// return an error rather than a guess.
func (s *Spanner) Hierarchical() (bool, error) {
	if s.rspanner != nil {
		return false, fmt.Errorf("docspanner: Hierarchical is implemented for regular spanners")
	}
	return vset.Hierarchical(s.nfa), nil
}

// Equivalent decides whether two regular spanners extract the same
// relation from every document.
func Equivalent(a, b *Spanner) (bool, error) {
	if !a.IsRegular() || !b.IsRegular() {
		return false, fmt.Errorf("docspanner: Equivalence is undecidable beyond regular spanners; use EquivalentUpTo")
	}
	return vset.Equivalent(a.nfa, b.nfa), nil
}

// Contains decides ⟦a⟧(D) ⊆ ⟦b⟧(D) for all documents D (regular only).
func Contains(a, b *Spanner) (bool, error) {
	if !a.IsRegular() || !b.IsRegular() {
		return false, fmt.Errorf("docspanner: Containment is undecidable beyond regular spanners; use EquivalentUpTo")
	}
	return vset.Contains(a.nfa, b.nfa), nil
}

// CheckSplitCorrect decides split-correctness of p with respect to the
// splitter: whether extracting with p inside each span the splitter binds
// to splitVar (shifted back to whole-document coordinates) gives p's
// result on the whole document, on every document. It decides this
// exactly, by compiling the split-then-extract pipeline into a single
// regular spanner (internal/split.Compose) and checking spanner
// equivalence (Doleschal et al., PODS 2019; decidable for regular
// spanners, in contrast to core spanners). When the answer is negative, a
// counterexample document is searched for by bounded enumeration over
// alphabet (default: the union of the two automata's alphabets) up to
// length maxWitness.
func CheckSplitCorrect(p, splitter *Spanner, splitVar Var, alphabet []byte, maxWitness int) (correct bool, counterexample []byte, err error) {
	if !p.IsRegular() {
		return false, nil, fmt.Errorf("docspanner: CheckSplitCorrect needs a regular spanner (split-correctness is undecidable beyond)")
	}
	if !splitter.IsRegular() {
		return false, nil, fmt.Errorf("docspanner: CheckSplitCorrect: splitter must be a regular spanner")
	}
	if alphabet == nil {
		alphabet = unionAlphabet(p.nfa.Alphabet(), splitter.nfa.Alphabet())
	}
	res, err := split.Correct(p.nfa, splitter.nfa, splitVar, alphabet, maxWitness)
	if err != nil {
		return false, nil, err
	}
	return res.Correct, res.Counterexample, nil
}

func unionAlphabet(a, b []byte) []byte {
	seen := [256]bool{}
	out := make([]byte, 0, len(a)+len(b))
	for _, bs := range [][]byte{a, b} {
		for _, c := range bs {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Evaluator is the evaluation interface shared by *Spanner, *Query, and
// *NormalForm: anything that materializes a span relation on a document.
type Evaluator interface {
	Eval(doc []byte) *Relation
}

// EquivalentUpTo compares two Evaluators — spanners, queries, or normal
// forms, in any combination — on all documents over the alphabet up to
// the given length: a bounded refutation procedure for the undecidable
// cases (core-spanner equivalence, Section 2.4). It returns a
// counterexample document if one exists within the bound. The alphabet
// must be non-empty whenever maxLen > 0; otherwise only the empty
// document would be compared and "equal" would be vacuous, so that call
// is rejected with an error.
func EquivalentUpTo(a, b Evaluator, alphabet []byte, maxLen int) (equal bool, counterexample []byte, err error) {
	if maxLen < 0 {
		return false, nil, fmt.Errorf("docspanner: EquivalentUpTo: negative maxLen %d", maxLen)
	}
	if len(alphabet) == 0 && maxLen > 0 {
		return false, nil, fmt.Errorf("docspanner: EquivalentUpTo: empty alphabet with maxLen %d would compare only the empty document", maxLen)
	}
	var doc []byte
	var rec func(int) []byte
	rec = func(depth int) []byte {
		if !a.Eval(doc).Equal(b.Eval(doc)) {
			return append([]byte(nil), doc...)
		}
		if depth == maxLen {
			return nil
		}
		for _, c := range alphabet {
			doc = append(doc, c)
			if ce := rec(depth + 1); ce != nil {
				return ce
			}
			doc = doc[:len(doc)-1]
		}
		return nil
	}
	if ce := rec(0); ce != nil {
		return false, ce, nil
	}
	return true, nil, nil
}

// ExactCount returns the exact number of result tuples on doc without
// enumerating them (dynamic programming over the deterministic automaton;
// polynomial even when the count is astronomical). Regular spanners only.
func (s *Spanner) ExactCount(doc []byte) (*big.Int, error) {
	if s.rspanner != nil {
		return nil, fmt.Errorf("docspanner: ExactCount is implemented for regular spanners")
	}
	return enum.FastCount(s.dEVA(), doc), nil
}

// Re-exported static-analysis (spanlint) types. See package
// internal/lint for the pass implementations and cmd/spanlint for the
// command-line front end.
type (
	// Diagnostic is one spanlint finding, with a stable code (SP001–SP008),
	// a severity, a position path into the expression tree, a message, and
	// an optional fix hint.
	Diagnostic = lint.Diagnostic
	// Severity grades a Diagnostic: SeverityInfo, SeverityWarning, or
	// SeverityError.
	Severity = lint.Severity
)

// Severity levels for lint diagnostics.
const (
	SeverityInfo    = lint.Info
	SeverityWarning = lint.Warning
	SeverityError   = lint.Error
)

// Lint runs the spanlint static-analysis passes on the compiled spanner
// and returns its diagnostics, sorted and deterministic; an empty slice
// means the spanner is lint-clean. The passes reuse the library's decision
// procedures (Satisfiable, Hierarchical, ...) and run in query complexity
// only — no document is involved. Like every other method, Lint is safe to
// call concurrently on a shared spanner.
func (s *Spanner) Lint() []Diagnostic {
	if s.rspanner != nil {
		return lint.Refl(s.rspanner)
	}
	return lint.Spanner(s.nfa, s.ast, s.schemaless)
}

// Difference returns the spanner D ↦ a(D) ∖ b(D). Regular spanners are
// closed under difference (via the extended-word language view); the
// result is again a regular spanner usable everywhere a compiled spanner
// is.
func Difference(a, b *Spanner) (*Spanner, error) {
	if !a.IsRegular() || !b.IsRegular() {
		return nil, fmt.Errorf("docspanner: Difference is implemented for regular spanners")
	}
	nfa := vset.Difference(a.nfa, b.nfa)
	return &Spanner{
		pattern:    fmt.Sprintf("(%s)\\(%s)", a.pattern, b.pattern),
		nfa:        nfa,
		schemaless: true, // the difference may drop variables on some tuples
	}, nil
}
