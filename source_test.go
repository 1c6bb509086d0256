package docspanner

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
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
	// The schemaless twins: optional captures, so ⊥ reaches the shared and
	// the selected columns of the materializing operators.
	sq := func(pattern string) *Query {
		t.Helper()
		s, err := Compile(pattern, Options{Alphabet: []byte("ab"), Schemaless: true})
		if err != nil {
			t.Fatalf("Compile(%q): %v", pattern, err)
		}
		return MustQ(s)
	}
	const equiJoin = "hash equi-join on content("
	logDocs := []string{"", "[00:01] auth req=r1 msg=ok\n",
		"[00:01] auth req=r1 msg=ok\n[00:02] auth req=r2 msg=cache miss\n[00:03] search req=r1 msg=ok\n" +
			"[00:04] billing req=r2 msg=cache miss\n[00:05] auth req=r2 msg=ok\n[00:06] gateway req=r1 msg=ok\n"}
	shapes := []struct {
		name    string
		q       *Query
		explain string   // must appear in the plan: the shape is what it claims
		docs    []string // nil: the {a,b} documents below
	}{
		{"constant-delay scan", x, "constant-delay", nil},
		{"naive scan", x.WithPlan(PlanOptions{NaiveBackend: true}), "nfa-search", nil},
		{"refl ext-scan", xy.SelectEqual("x", "y").WithPlan(PlanOptions{ReflRewrite: true}), "refl-search", nil},
		{"union", x.Union(abQuery(t, "a*!x{ba}(a|b)*")).WithPlan(keepTree), "∪", nil},
		{"join", abQuery(t, ".*!x{ab}.*!j{a}.*").Join(x).WithPlan(keepTree), "⋈", nil},
		{"project", xy.Project("x").WithPlan(keepTree), "π", nil},
		{"select-eq", xy.SelectEqual("x", "y"), "ς=", nil},
		{"fuse", xy.Fuse("z", "x", "y").WithPlan(keepTree), "materialize", nil},
		{"pruned-empty", x.Join(abQuery(t, ".*!x{ba}.*")), "empty", nil},
		{"RequireTotal", refl, "", nil},
		{"dup", dupQuery(Options{}), equiJoin, logDocs},
		{"dup schemaless", dupQuery(Options{Schemaless: true}), equiJoin, logDocs},
		{"stacked selections over a join",
			abQuery(t, ".*!x{a+}!u{b+}.*").Join(abQuery(t, ".*!y{a+}!v{b+}.*")).SelectEqual("u", "v").SelectEqual("x", "y").WithPlan(keepTree),
			equiJoin + "u)=content(v)", nil},
		{"stacked selections over a join, schemaless",
			sq(".*(!x{a+}|b)!u{b+}.*").Join(sq(".*!y{a+}(!v{b+}|a).*")).SelectEqual("u", "v").SelectEqual("x", "y").WithPlan(keepTree),
			equiJoin + "x)=content(y)", nil},
		{"selection over a join with a shared variable",
			abQuery(t, ".*!x{a+}!s{b}.*").Join(abQuery(t, ".*!s{b}!y{a+}.*")).SelectEqual("x", "y").WithPlan(keepTree),
			equiJoin, nil},
		{"selection over a join with a shared variable, schemaless",
			sq(".*(!x{a+}|b)(!s{b}|a).*").Join(sq(".*(!s{b}|a)!y{a+}.*")).SelectEqual("x", "y").WithPlan(keepTree),
			equiJoin, nil},
		{"selection on the shared variable of a join",
			abQuery(t, ".*!s{a+}b!x{a+}.*").Join(abQuery(t, ".*!s{a+}b.*")).SelectEqual("s", "x").WithPlan(keepTree),
			"⋈", nil},
		{"selection on the shared variable of a join, schemaless",
			sq(".*(!s{a+}|b)b!x{a+}.*").Join(sq(".*!s{a+}b.*")).SelectEqual("s", "x").WithPlan(keepTree),
			"⋈", nil},
		{"union of two schemas under a join",
			abQuery(t, ".*!x{ab}.*").Union(abQuery(t, ".*!x{a}!y{b}.*")).Join(abQuery(t, ".*!y{b}a.*")).WithPlan(keepTree),
			"∪", nil},
		{"union of two schemas under a join, schemaless",
			sq(".*!x{ab}.*").Union(sq(".*!x{a}!y{b}.*")).Join(sq(".*(!y{b}|a)a.*")).WithPlan(keepTree),
			"∪", nil},
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
		if sh.docs == nil {
			sh.docs = docs
		}
		for _, doc := range sh.docs {
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
				if seen.Len() != delivered {
					fail("Enumerate repeated a tuple: %d delivered, %d distinct", delivered, seen.Len())
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

// TestDeadlineInsideAMaterializingJoin: a deadline that falls while a
// materializing operator is still building its relation, or while a
// leaf's configuration search has found nothing yet, is observed there —
// not once the relation exists — and no tuple is delivered. The rows:
//   - the unselected cross product of two 4,000-tuple scans: 16 M rows,
//     well over a second of work at the ~10 M rows/s the join emits, and
//     never built;
//   - the same join over NaiveBackend leaves, whose searches carry each
//     of the 4,000 spans through every later position;
//   - a refl-spanner scan (the refl rewrite of a selection) that compares
//     every span of at least 20 letters with every later span of a
//     random text and matches none: seconds of search without a tuple.
func TestDeadlineInsideAMaterializingJoin(t *testing.T) {
	az := Options{Alphabet: []byte("abcdefghijklmnopqrstuvwxyz")}
	cross := MustQ(MustCompile(".*!x{[a-z]}.*", az)).Join(MustQ(MustCompile(".*!y{[a-z]}.*", az)))
	rng := rand.New(rand.NewSource(1))
	text := func(n int, alphabet string) []byte {
		doc := make([]byte, n)
		for i := range doc {
			doc[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return doc
	}
	rows := []struct {
		name    string
		q       *Query
		explain string // must appear in the plan: the row is what it claims
		doc     []byte
	}{
		{"join", cross.WithPlan(PlanOptions{DisableRewrites: true}), "materialize", text(4000, "abcdefghijklmnopqrstuvwxyz")},
		{"join over naive leaves", cross.WithPlan(PlanOptions{DisableRewrites: true, NaiveBackend: true}), "nfa-search",
			text(4000, "abcdefghijklmnopqrstuvwxyz")},
		{"refl leaf", abQuery(t, ".*!x{(a|b){20,}}.*!y{(a|b)+}.*").SelectEqual("x", "y").WithPlan(PlanOptions{ReflRewrite: true}),
			"refl-search", text(200, "ab")},
	}
	const deadline = 20 * time.Millisecond
	for _, row := range rows {
		if !strings.Contains(row.q.Explain(), row.explain) {
			t.Fatalf("%s: plan is not that shape:\n%s", row.name, row.q.Explain())
		}
		q, doc := row.q, row.doc
		verbs := map[string]func(ctx context.Context) error{
			"EnumerateSource": func(ctx context.Context) error {
				return q.EnumerateSource(ctx, Text(doc), func(Tuple) bool {
					t.Errorf("%s: a tuple was delivered: the evaluation was not stopped inside", row.name)
					return false
				})
			},
			"CountSource": func(ctx context.Context) error {
				n, err := q.CountSource(ctx, Text(doc))
				if n != 0 {
					t.Errorf("%s: a stopped evaluation has no partial relation, the count is %d", row.name, n)
				}
				return err
			},
		}
		for name, verb := range verbs {
			// The bound is on wall time: a stall of the host may cost one attempt.
			var elapsed time.Duration
			for attempt := 0; attempt < 3; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				start := time.Now()
				err := verb(ctx)
				elapsed = time.Since(start)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s: %s under a %v deadline: err %v after %v", row.name, name, deadline, err, elapsed)
				}
				if elapsed < 10*deadline {
					break
				}
			}
			if elapsed >= 10*deadline {
				t.Errorf("%s: %s noticed its %v deadline only after %v", row.name, name, deadline, elapsed)
			}
		}
	}
}
