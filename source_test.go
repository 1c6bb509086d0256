package docspanner

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestOnePathOverEverySource is the differential table of the single
// evaluation path: every physical plan shape × every way a document can
// be given × every verb, against the planner-free EvalNaive.
func TestOnePathOverEverySource(t *testing.T) {
	keepTree := PlanOptions{DisableRewrites: true} // the operators survive as written
	x, xy := abQuery(t, ".*!x{ab}.*"), abQuery(t, ".*b!x{a+}b.*b!y{a+}b.*")
	refl, err := NewQuery(abSpanner(t, "!x{(a|b)+}&x"), QueryOptions{AutoToCore: true})
	if err != nil || len(refl.requireTotal) == 0 {
		t.Fatalf("AutoToCore: err %v, requireTotal %v", err, refl.requireTotal)
	}
	shapes := []struct {
		name    string
		q       *Query
		explain string // must appear in the plan: the shape is what it claims
	}{
		{"constant-delay scan", x, "constant-delay"},
		{"naive scan", x.WithPlan(PlanOptions{NaiveBackend: true}), "nfa-search"},
		{"refl ext-scan", xy.SelectEqual("x", "y").WithPlan(PlanOptions{ReflRewrite: true}), "refl-search"},
		{"union", x.Union(abQuery(t, "a*!x{ba}(a|b)*")).WithPlan(keepTree), "∪"},
		{"join", abQuery(t, ".*!x{ab}.*!j{a}.*").Join(x).WithPlan(keepTree), "⋈"},
		{"project", xy.Project("x").WithPlan(keepTree), "π"},
		{"select-eq", xy.SelectEqual("x", "y"), "ς="},
		{"fuse", xy.Fuse("z", "x", "y").WithPlan(keepTree), "materialize"},
		{"pruned-empty", x.Join(abQuery(t, ".*!x{ba}.*")), "empty"},
		{"RequireTotal", refl, ""},
	}
	docs := []string{"", "ab", "abab", "babab", "baabaab", "abbaabba", strings.Repeat("ab", 9)}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	for _, sh := range shapes {
		if !strings.Contains(sh.q.Explain(), sh.explain) {
			t.Fatalf("%s: plan is not that shape:\n%s", sh.name, sh.q.Explain())
		}
		pl := sh.q.plan()
		tuples := 0
		for _, doc := range docs {
			want := sh.q.EvalNaive([]byte(doc))
			tuples += want.Len()
			for kind, src := range map[string]Source{
				"text":              Text([]byte(doc)),
				"DocumentFromBytes": Compressed(DocumentFromBytes([]byte(doc)), nil),
				"CompressDocument":  Compressed(CompressDocument([]byte(doc)), nil),
			} {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s on %q (%s): "+format+"\nplan:\n%s",
						append(append([]any{sh.name, doc, kind}, args...), sh.q.Explain())...)
				}

				if got := pl.Eval(src); !got.Equal(want) {
					fail("Eval %v, want %v", got, want)
				}

				// Enumerate, stopped after half of the result (rounded up).
				stopAt := (want.Len() + 1) / 2
				seen := NewRelation()
				delivered := 0
				err := sh.q.EnumerateSource(ctx, src, func(tu Tuple) bool {
					delivered++
					if !want.Contains(tu) {
						fail("Enumerate yielded %v, not in %v", tu, want)
					}
					seen.Add(tu)
					return delivered < stopAt
				})
				if err != nil || delivered != stopAt {
					fail("Enumerate stopped after %d tuples (err %v), want %d", delivered, err, stopAt)
				}
				if sh.q.DistinctEnumeration() && seen.Len() != delivered {
					fail("distinct enumeration repeated a tuple: %d delivered, %d distinct", delivered, seen.Len())
				}

				if n, err := sh.q.CountSource(ctx, src); err != nil || n != want.Len() {
					fail("Count = %d (err %v), want %d", n, err, want.Len())
				}

				// Count cancelled mid-way: the second poll says stop.
				polls := 0
				n, complete := pl.CountPoll(src, func() bool { polls++; return polls < 2 })
				switch {
				case polls >= 2 && complete:
					fail("Count ignored its poll: complete after %d polls", polls)
				case complete && n != want.Len():
					fail("unpolled Count = %d, want %d", n, want.Len())
				case n > want.Len():
					fail("cancelled Count = %d exceeds the result size %d", n, want.Len())
				}
				if _, err := sh.q.CountSource(cancelled, src); !errors.Is(err, context.Canceled) {
					fail("Count under a cancelled context: err %v", err)
				}
			}
		}
		if (tuples == 0) != (sh.name == "pruned-empty") {
			t.Fatalf("%s: %d result tuples over all documents — the table does not exercise it", sh.name, tuples)
		}
	}
}
