package docspanner

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/refwords"
	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// Randomized cross-validation: generate random spanner patterns and
// documents, then check that every evaluation path in the repository
// agrees — the naive configuration search (vset.Eval), the
// constant-delay enumerator (enum), the compressed enumerator (slpmatch)
// on two different SLPs of the same document, ModelChecking on sampled
// tuples, and the core-simplification normal form for algebra wrappings.

// genPattern produces a random well-formed spanner pattern over {a,b}
// binding up to maxVars variables.
type patternGen struct {
	rng    *rand.Rand
	nextID int
}

func (g *patternGen) fresh() string {
	g.nextID++
	return fmt.Sprintf("v%d", g.nextID)
}

// gen generates an expression; depth bounds nesting, canBind controls
// whether variable bindings are allowed in this position.
func (g *patternGen) gen(depth int, canBind bool) string {
	choices := []func() string{
		func() string { return "a" },
		func() string { return "b" },
		func() string { return "(a|b)" },
		func() string { return "a*" },
		func() string { return "(ab)*" },
		func() string { return "b+" },
		func() string { return "a?" },
	}
	if depth > 0 {
		choices = append(choices,
			func() string { return g.gen(depth-1, canBind) + g.gen(depth-1, canBind) },
			func() string { return "(" + g.gen(depth-1, false) + "|" + g.gen(depth-1, false) + ")" },
			func() string { return "(" + g.gen(depth-1, false) + ")*" },
		)
		if canBind && g.nextID < 3 {
			choices = append(choices, func() string {
				return "!" + g.fresh() + "{" + g.gen(depth-1, canBind) + "}"
			})
		}
	}
	return choices[g.rng.Intn(len(choices))]()
}

func (g *patternGen) pattern() string {
	// Ensure at least one binding so the spanner is interesting.
	body := g.gen(3, true)
	if g.nextID == 0 {
		body = "!" + g.fresh() + "{" + g.gen(2, false) + "}" + body
	}
	return body
}

func randomDocOver(rng *rand.Rand, n int) []byte {
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	return doc
}

func TestCrossValidateEvaluationPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(20220617))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		g := &patternGen{rng: rng}
		pattern := g.pattern()
		s, err := Compile(pattern, Options{Alphabet: []byte("ab"), Schemaless: true})
		if err != nil {
			// Generator can produce duplicate bindings via concatenation
			// of binding subtrees; those are correctly rejected.
			if strings.Contains(err.Error(), "bound twice") ||
				strings.Contains(err.Error(), "repetition") {
				continue
			}
			t.Fatalf("pattern %q: %v", pattern, err)
		}
		nfa := s.nfa
		d := automata.Determinize(nfa)
		ix := slpmatch.NewIndex(d)

		for di := 0; di < 4; di++ {
			doc := randomDocOver(rng, rng.Intn(12))

			naive := vset.Eval(nfa, doc, vset.Schemaless)
			enumerated := enum.NewEnumerator(d, doc).All()
			if !naive.Equal(enumerated) {
				t.Fatalf("pattern %q doc %q: naive %v != enum %v", pattern, doc, naive, enumerated)
			}

			plainSLP := slp.FromBytes(doc)
			compSLP := slp.Balance(slp.Compress(doc))
			if got := ix.All(plainSLP); !got.Equal(naive) {
				t.Fatalf("pattern %q doc %q: plain-SLP %v != naive %v", pattern, doc, got, naive)
			}
			if got := ix.All(compSLP); !got.Equal(naive) {
				t.Fatalf("pattern %q doc %q: compressed-SLP %v != naive %v", pattern, doc, got, naive)
			}

			// ModelChecking agrees on every member tuple and on a few
			// random non-members.
			for _, tup := range naive.Tuples() {
				ok, err := vset.ModelCheck(nfa, doc, tup, vset.Schemaless)
				if err != nil || !ok {
					t.Fatalf("pattern %q doc %q: ModelCheck rejects member %v (%v)", pattern, doc, tup, err)
				}
			}
			for probe := 0; probe < 5 && len(nfa.Vars) > 0; probe++ {
				v := nfa.Vars[rng.Intn(len(nfa.Vars))]
				b := rng.Intn(len(doc)+1) + 1
				e := b + rng.Intn(len(doc)+2-b)
				tup := spans.NewTuple(v, spans.S(b, e))
				ok, err := vset.ModelCheck(nfa, doc, tup, vset.Schemaless)
				if err != nil {
					t.Fatalf("ModelCheck error: %v", err)
				}
				if ok != naive.Contains(tup) {
					t.Fatalf("pattern %q doc %q: ModelCheck(%v)=%v but relation says %v",
						pattern, doc, tup, ok, naive.Contains(tup))
				}
			}

			// NonEmptiness agrees with the relation.
			if vset.NonEmpty(nfa, doc) != (naive.Len() > 0) {
				t.Fatalf("pattern %q doc %q: NonEmpty disagrees", pattern, doc)
			}
		}
	}
}

func TestCrossValidateAlgebraPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(99991))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	mkPrim := func() algebra.Expr {
		g := &patternGen{rng: rng}
		for {
			pattern := g.pattern()
			s, err := Compile(pattern, Options{Alphabet: []byte("ab"), Schemaless: true})
			if err == nil {
				return algebra.Prim{A: s.nfa}
			}
			g = &patternGen{rng: rng}
		}
	}
	for trial := 0; trial < trials; trial++ {
		// Random small algebra tree over random primitives.
		var build func(depth int) algebra.Expr
		build = func(depth int) algebra.Expr {
			if depth == 0 || rng.Intn(3) == 0 {
				return mkPrim()
			}
			switch rng.Intn(4) {
			case 0:
				return algebra.Union{L: build(depth - 1), R: build(depth - 1)}
			case 1:
				return algebra.Join{L: build(depth - 1), R: build(depth - 1)}
			case 2:
				sub := build(depth - 1)
				vars := sub.Vars()
				if len(vars) == 0 {
					return sub
				}
				keep := spans.NewVarSet(vars[rng.Intn(len(vars))])
				return algebra.Project{Sub: sub, Keep: keep}
			default:
				sub := build(depth - 1)
				vars := sub.Vars()
				if len(vars) < 2 {
					return sub
				}
				z := spans.NewVarSet(vars[0], vars[1])
				return algebra.SelectEq{Sub: sub, Z: z}
			}
		}
		expr := build(2)
		cf, err := algebra.Simplify(expr)
		if err != nil {
			t.Fatalf("Simplify(%s): %v", algebra.String(expr), err)
		}
		for di := 0; di < 4; di++ {
			doc := randomDocOver(rng, rng.Intn(8))
			want := expr.Eval(doc, vset.Schemaless)
			got := cf.Eval(doc, vset.Schemaless)
			if !got.Equal(want) {
				t.Fatalf("expr %s doc %q:\n normal form %v\n reference %v",
					algebra.String(expr), doc, got, want)
			}
		}
	}
}

// TestCrossValidatePlanner cross-validates the query planner: on random
// algebra trees over random primitive spanners, under both semantics,
// the planner with all rewrite passes (and with the opt-in refl
// rewrite) must produce exactly the relation of the naive bottom-up
// reference evaluation — on plain documents, via streaming enumeration,
// and through the compressed backend on two different SLPs of the same
// document. Shared plans are exercised from concurrent goroutines, so a
// -race run also proves the planner's caches are safe.
func TestCrossValidatePlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	mkPrim := func() algebra.Expr {
		g := &patternGen{rng: rng}
		for {
			pattern := g.pattern()
			s, err := Compile(pattern, Options{Alphabet: []byte("ab"), Schemaless: true})
			if err == nil {
				return algebra.Prim{A: s.nfa, Src: s.ast}
			}
			g = &patternGen{rng: rng}
		}
	}
	for trial := 0; trial < trials; trial++ {
		var build func(depth int) algebra.Expr
		build = func(depth int) algebra.Expr {
			if depth == 0 || rng.Intn(3) == 0 {
				return mkPrim()
			}
			switch rng.Intn(4) {
			case 0:
				return algebra.Union{L: build(depth - 1), R: build(depth - 1)}
			case 1:
				return algebra.Join{L: build(depth - 1), R: build(depth - 1)}
			case 2:
				sub := build(depth - 1)
				vars := sub.Vars()
				if len(vars) == 0 {
					return sub
				}
				keep := spans.NewVarSet(vars[rng.Intn(len(vars))])
				return algebra.Project{Sub: sub, Keep: keep}
			default:
				sub := build(depth - 1)
				vars := sub.Vars()
				if len(vars) < 2 {
					return sub
				}
				z := spans.NewVarSet(vars[0], vars[1])
				return algebra.SelectEq{Sub: sub, Z: z}
			}
		}
		expr := build(2)
		for _, schemaless := range []bool{false, true} {
			base := &Query{expr: expr, schemaless: schemaless}
			naive := base.WithPlan(PlanOptions{DisableRewrites: true, NaiveBackend: true})
			planned := base.WithPlan(PlanOptions{})
			withRefl := base.WithPlan(PlanOptions{ReflRewrite: true})
			for di := 0; di < 3; di++ {
				doc := randomDocOver(rng, rng.Intn(10))
				want := naive.Eval(doc)
				if got := planned.Eval(doc); !got.Equal(want) {
					t.Fatalf("expr %s doc %q schemaless=%v:\n planner %v\n naive %v\nplan:\n%s",
						algebra.String(expr), doc, schemaless, got, want, planned.Explain())
				}
				if got := withRefl.Eval(doc); !got.Equal(want) {
					t.Fatalf("expr %s doc %q schemaless=%v (refl-rewrite):\n planner %v\n naive %v\nplan:\n%s",
						algebra.String(expr), doc, schemaless, got, want, withRefl.Explain())
				}
				docs := []*Document{DocumentFromBytes(doc), CompressDocument(doc)}
				// Count and Enumerate go through the one Source entry point
				// for every way the document can be given.
				for _, src := range []Source{Text(doc), Compressed(docs[0], nil), Compressed(docs[1], nil)} {
					if got, err := planned.CountSource(context.Background(), src); err != nil || got != want.Len() {
						t.Fatalf("expr %s doc %q schemaless=%v: Count %d (err %v), want %d",
							algebra.String(expr), doc, schemaless, got, err, want.Len())
					}
					streamed := NewRelation()
					if err := planned.EnumerateSource(context.Background(), src, func(tu Tuple) bool { streamed.Add(tu); return true }); err != nil {
						t.Fatal(err)
					}
					if !streamed.Equal(want) {
						t.Fatalf("expr %s doc %q schemaless=%v: Enumerate %v, want %v",
							algebra.String(expr), doc, schemaless, streamed, want)
					}
				}
				for _, d := range docs {
					if got := planned.EvalCompressed(d); !got.Equal(want) {
						t.Fatalf("expr %s doc %q schemaless=%v: compressed backend %v, want %v\nplan:\n%s",
							algebra.String(expr), doc, schemaless, got, want, planned.Explain())
					}
				}
				// Shared plan, concurrent evaluation (meaningful under -race).
				var wg sync.WaitGroup
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := planned.Eval(doc); !got.Equal(want) {
							t.Errorf("concurrent planner eval diverged on %q", doc)
						}
					}()
				}
				wg.Wait()
			}
		}
	}
}

// TestCrossValidateSubwordMarkedWords checks the declarative view of
// Section 2.1: the relation computed by evaluation coincides with the
// tuples read off the accepted subword-marked words.
func TestCrossValidateSubwordMarkedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 30; trial++ {
		g := &patternGen{rng: rng}
		pattern := g.pattern()
		s, err := Compile(pattern, Options{Alphabet: []byte("ab"), Schemaless: true})
		if err != nil {
			continue
		}
		doc := randomDocOver(rng, rng.Intn(8))
		rel := vset.Eval(s.nfa, doc, vset.Schemaless)
		for _, tup := range rel.Tuples() {
			w := refwords.FromTuple(doc, tup)
			if string(w.Erase()) != string(doc) {
				t.Fatalf("e(w) != doc for %v", tup)
			}
			if !w.SpanTuple().Equal(tup) {
				t.Fatalf("st(w) != t for %v", tup)
			}
			if !vset.AcceptsMarked(s.nfa, w.ToMarkerSets()) {
				t.Fatalf("pattern %q: automaton rejects its own subword-marked word %v", pattern, w)
			}
		}
	}
}
