package docspanner

import (
	"context"
	"strings"
	"testing"
)

func abSpanner(t *testing.T, pattern string) *Spanner {
	t.Helper()
	s, err := Compile(pattern, Options{Alphabet: []byte("ab")})
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	return s
}

func abQuery(t *testing.T, pattern string) *Query {
	t.Helper()
	q, err := Q(abSpanner(t, pattern))
	if err != nil {
		t.Fatalf("Q(%q): %v", pattern, err)
	}
	return q
}

func TestQueryExplainShowsRewrites(t *testing.T) {
	// x cannot have content "ab" and "ba" at the same span: the join
	// fuses into one automaton with an empty language, and prune
	// replaces it by the empty plan before any document is seen. Over
	// the fusion budget, or with the planner off, the join stays and
	// evaluates to ∅ on its own.
	q := abQuery(t, ".*!x{ab}.*").Join(abQuery(t, ".*!x{ba}.*"))
	doc := []byte("abba")
	for _, tc := range []struct {
		name string
		plan PlanOptions
		want []string
	}{
		{"default", PlanOptions{}, []string{"rewrites: core-simplify, prune", "SP001", "[empty]"}},
		{"over fusion budget", PlanOptions{MaxFusedStates: 1}, []string{"join vars={x}  [materialize]"}},
		{"planner off", PlanOptions{DisableRewrites: true, NaiveBackend: true}, []string{"rewrites: disabled"}},
	} {
		pq := q.WithPlan(tc.plan)
		out := pq.Explain()
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: Explain missing %q:\n%s", tc.name, want, out)
			}
		}
		if got, want := pq.Eval(doc), pq.EvalNaive(doc); got.Len() != 0 || !got.Equal(want) {
			t.Errorf("%s: Eval = %v, EvalNaive = %v, want both empty", tc.name, got, want)
		}
	}
}

func TestQueryStreamingAndEarlyStop(t *testing.T) {
	q := abQuery(t, ".*!x{ab}.*").Union(abQuery(t, "a*!x{ba}(a|b)*"))
	if !q.Streaming() {
		t.Fatalf("fused union not streaming:\n%s", q.Explain())
	}
	doc := []byte(strings.Repeat("ab", 32))
	want := q.WithPlan(PlanOptions{DisableRewrites: true, NaiveBackend: true}).Eval(doc)
	if got := q.Eval(doc); !got.Equal(want) {
		t.Fatalf("fused union disagrees with baseline:\n got %v\nwant %v", got, want)
	}
	if got := q.Count(doc); got != want.Len() {
		t.Errorf("Count = %d, want %d", got, want.Len())
	}
	n := 0
	q.Enumerate(doc, func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop delivered %d tuples, want 3", n)
	}
}

func TestNewQueryAutoToCore(t *testing.T) {
	s := abSpanner(t, "!x{(a|b)+}&x")
	if _, err := Q(s); err == nil || !strings.Contains(err.Error(), "AutoToCore") {
		t.Fatalf("Q on a refl-spanner: err = %v, want AutoToCore hint", err)
	}
	q, err := NewQuery(s, QueryOptions{AutoToCore: true})
	if err != nil {
		t.Fatalf("NewQuery AutoToCore: %v", err)
	}
	for _, doc := range []string{"", "abab", "aa", "abba", "aabaab"} {
		want := s.Eval([]byte(doc))
		if got := q.Eval([]byte(doc)); !got.Equal(want) {
			t.Errorf("doc %q: AutoToCore query %v, refl spanner %v\nplan:\n%s",
				doc, got, want, q.Explain())
		}
	}
	// Unbounded references are provably outside the core fragment.
	unb := abSpanner(t, "a+!x{b+}(a+&x)*a+")
	if _, err := NewQuery(unb, QueryOptions{AutoToCore: true}); err == nil {
		t.Error("AutoToCore accepted an unbounded-reference spanner")
	}
}

func TestQueryIndexViaPlanner(t *testing.T) {
	// The union fuses to a single scan, so the compressed index exists.
	q := abQuery(t, ".*!x{ab}.*").Union(abQuery(t, "a*!x{ba}(a|b)*"))
	ix, err := q.Index()
	if err != nil {
		t.Fatalf("Index on a fusable query: %v", err)
	}
	doc := []byte(strings.Repeat("abba", 16))
	d := CompressDocument(doc)
	if got, want := ix.Eval(d), q.Eval(doc); !got.Equal(want) {
		t.Errorf("index eval %v, want %v", got, want)
	}
	if got, want := q.EvalCompressed(d), q.Eval(doc); !got.Equal(want) {
		t.Errorf("EvalCompressed %v, want %v", got, want)
	}
	if got, err := q.CountSource(context.Background(), Compressed(d, nil)); err != nil || got != q.Count(doc) {
		t.Errorf("CountSource on the compressed document = %d, %v; want %d", got, err, q.Count(doc))
	}

	// A string-equality selection leaves residual algebra: no index, but
	// compressed evaluation still works through the plan.
	sel := abQuery(t, ".*b!x{a+}b.*b!y{a+}b.*").SelectEqual("x", "y")
	if _, err := sel.Index(); err == nil || !strings.Contains(err.Error(), "plan") {
		t.Fatalf("Index on a selection query: err = %v, want plan-shape error", err)
	}
	if got, want := sel.EvalCompressed(d), sel.Eval(doc); !got.Equal(want) {
		t.Errorf("selection EvalCompressed %v, want %v", got, want)
	}
}

func TestNormalFormSatisfiesEvaluator(t *testing.T) {
	q := abQuery(t, ".*!x{a+}!y{b+}.*").SelectEqual("x", "y").Project("x")
	nf, err := q.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	equal, ce, err := EquivalentUpTo(q, nf, []byte("ab"), 6)
	if err != nil {
		t.Fatalf("EquivalentUpTo: %v", err)
	}
	if !equal {
		t.Errorf("normal form disagrees with query on %q", ce)
	}
}
