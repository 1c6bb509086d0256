package plan

import (
	"strings"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

func compile(t testing.TB, src string) (*automata.NFA, regex.Node) {
	t.Helper()
	n, err := regex.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte("ab")})
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return a, n
}

func prim(t testing.TB, src string) algebra.Expr {
	t.Helper()
	a, n := compile(t, src)
	return algebra.Prim{A: a, Src: n}
}

// checkAgainstNaive compares the planned evaluation with the naive
// bottom-up reference on a few documents.
func checkAgainstNaive(t *testing.T, e algebra.Expr, opts Options, docs ...string) {
	t.Helper()
	sem := vset.Functional
	if opts.Schemaless {
		sem = vset.Schemaless
	}
	pl := New(e, opts)
	for _, doc := range docs {
		want := e.Eval([]byte(doc), sem)
		if got := pl.Eval(Text([]byte(doc))); !got.Equal(want) {
			t.Fatalf("doc %q: planned %v, want %v\nplan:\n%s", doc, got, want, pl.Explain())
		}
	}
}

func TestProvablyEmptyJoinPruned(t *testing.T) {
	// Disjoint languages: under functional semantics the join fuses into
	// one automaton whose language is empty, and prune replaces it by ∅
	// before any document is seen.
	e := algebra.Join{L: prim(t, "!x{a}"), R: prim(t, "!x{b}")}
	pl := New(e, Options{})
	if pl.Logical().Kind != algebra.PEmpty {
		t.Fatalf("provably empty join not pruned:\n%s", pl.Explain())
	}
	for _, want := range []string{"rewrites: core-simplify, prune", "SP001"} {
		if !strings.Contains(pl.Explain(), want) {
			t.Errorf("prune provenance missing %q:\n%s", want, pl.Explain())
		}
	}
	checkAgainstNaive(t, e, Options{}, "", "a", "b", "ab")
}

func TestEmptyJoinPruneGuardedUnderSchemaless(t *testing.T) {
	// L=(!v{a}|b), R=!v{b}: the synchronized product is empty on shared
	// markers, but the schemaless relational join is NOT empty on "b"
	// (the b-branch contributes the empty tuple, compatible with
	// everything). The planner must not fuse and prune the join because
	// v is not always bound on the left.
	e := algebra.Join{L: prim(t, "(!v{a}|b)"), R: prim(t, "!v{b}")}
	pl := New(e, Options{Schemaless: true})
	if pl.Logical().Kind == algebra.PEmpty {
		t.Fatalf("unsound schemaless join prune applied:\n%s", pl.Explain())
	}
	checkAgainstNaive(t, e, Options{Schemaless: true}, "", "a", "b", "ab", "ba")
}

func TestDuplicateUnionElimination(t *testing.T) {
	e := algebra.Union{L: prim(t, "!x{a+}"), R: prim(t, "!x{aa*}")}
	pl := New(e, Options{})
	if got := pl.Logical().Kind; got != algebra.PScan {
		t.Fatalf("duplicate union branches not eliminated (kind %v):\n%s", got, pl.Explain())
	}
	if !strings.Contains(pl.Explain(), "SP008") {
		t.Errorf("dedup provenance missing:\n%s", pl.Explain())
	}
	checkAgainstNaive(t, e, Options{}, "", "a", "aa", "ab")
}

func TestReflRewrite(t *testing.T) {
	e := algebra.SelectEq{Sub: prim(t, "!x{a+}b!y{a+}"), Z: spans.NewVarSet("x", "y")}
	pl := New(e, Options{ReflRewrite: true})
	if pl.Logical().Kind != algebra.PExtScan {
		t.Fatalf("refl rewrite did not apply:\n%s", pl.Explain())
	}
	if !strings.Contains(pl.Explain(), "SP007") {
		t.Errorf("refl rewrite provenance missing:\n%s", pl.Explain())
	}
	checkAgainstNaive(t, e, Options{ReflRewrite: true},
		"", "aba", "aabaa", "ab", "aabab")

	// Under schemaless semantics the translation's equivalence is not
	// established; the pass must not run.
	pls := New(e, Options{ReflRewrite: true, Schemaless: true})
	if pls.Logical().Kind == algebra.PExtScan {
		t.Fatalf("refl rewrite applied under schemaless semantics:\n%s", pls.Explain())
	}
}

func TestFusionCollapsesToSingleScan(t *testing.T) {
	e := algebra.Union{L: prim(t, "!x{a}b"), R: prim(t, "a!x{b}")}
	pl := New(e, Options{})
	if _, ok := pl.SingleScan(); !ok {
		t.Fatalf("fusable union did not collapse to a single scan:\n%s", pl.Explain())
	}
	if !pl.Streaming() {
		t.Error("single-scan plan not streaming")
	}
	checkAgainstNaive(t, e, Options{}, "", "ab", "ba", "abab")
}

func TestDisableRewritesMirrorsExpression(t *testing.T) {
	e := algebra.Union{L: prim(t, "!x{a+}"), R: prim(t, "!x{aa*}")}
	pl := New(e, Options{DisableRewrites: true})
	if pl.Logical().Kind != algebra.PUnion {
		t.Fatalf("rewrites ran despite DisableRewrites:\n%s", pl.Explain())
	}
	if !strings.Contains(pl.Explain(), "rewrites: disabled") {
		t.Errorf("Explain does not report disabled rewrites:\n%s", pl.Explain())
	}
	checkAgainstNaive(t, e, Options{DisableRewrites: true}, "", "a", "aa")
}

func TestNaiveBackendSelection(t *testing.T) {
	e := prim(t, "!x{a+}")
	pl := New(e, Options{NaiveBackend: true, DisableRewrites: true})
	if !strings.Contains(pl.Explain(), "nfa-search") {
		t.Errorf("naive backend not selected:\n%s", pl.Explain())
	}
	if pl.Streaming() {
		t.Error("naive scan reported as streaming")
	}
	checkAgainstNaive(t, e, Options{NaiveBackend: true, DisableRewrites: true}, "", "a", "aa")
}

func TestRequireTotalFiltersRoot(t *testing.T) {
	e := prim(t, "(!x{a}|b)")
	pl := New(e, Options{Schemaless: true, RequireTotal: spans.NewVarSet("x")})
	got := pl.Eval(Text([]byte("ab")))
	want := vset.Eval(e.(algebra.Prim).A, []byte("ab"), vset.Functional)
	if !got.Equal(want) {
		t.Fatalf("root totality filter: got %v, want %v", got, want)
	}
}

// TestPlanOwnsItsIndex: a single-scan plan hands out one index, the one
// its own evaluation on an SLP source reads and fills; plans of other
// shapes have none, and two plans of one expression are two plans.
func TestPlanOwnsItsIndex(t *testing.T) {
	e := algebra.Union{L: prim(t, "a*!x{a}a*"), R: prim(t, "b*!x{b}b*")}
	pl := New(e, Options{})
	ix, ok := pl.Index()
	if !ok {
		t.Fatalf("fused union has no index:\n%s", pl.Explain())
	}
	if ix2, _ := pl.Index(); ix2 != ix {
		t.Error("Index built a second instance")
	}
	if n := ix.CachedNodes(); n != 0 {
		t.Fatalf("fresh index has %d cached nodes", n)
	}
	root := slp.Repeat(slp.FromBytes([]byte("a")), 256) // longer than a block
	if got, _ := pl.CountPoll(SLP(root, nil), nil); got != 256 {
		t.Errorf("Count = %d, want 256", got)
	}
	if ix.CachedNodes() == 0 {
		t.Error("evaluation on an SLP source did not fill the plan's index")
	}
	if New(e, Options{}) == pl {
		t.Error("New returned an earlier plan")
	}
	sel := algebra.SelectEq{Sub: prim(t, "!x{a+}b!y{a+}"), Z: spans.NewVarSet("x", "y")}
	if _, ok := New(sel, Options{}).Index(); ok {
		t.Error("a plan with a residual selection handed out an index")
	}
}

// TestFlushAndRetainReachEveryScan: the index of a scan under a
// materializing operator is flushed and swept like a root scan's.
func TestFlushAndRetainReachEveryScan(t *testing.T) {
	sel := algebra.SelectEq{Sub: prim(t, ".*!x{ab}b!y{ab}.*"), Z: spans.NewVarSet("x", "y")}
	pl := New(sel, Options{})
	if _, ok := pl.Index(); ok {
		t.Fatalf("selection plan collapsed to a single scan:\n%s", pl.Explain())
	}
	text := []byte(strings.Repeat("abbab", 1<<14)) // past RetainFloor in tabled nodes
	root := slp.FromBytes(text)
	want := pl.Eval(Text(text))
	eval := func() {
		t.Helper()
		if got := pl.Eval(SLP(root, nil)); !got.Equal(want) {
			t.Fatalf("SLP evaluation: got %d tuples, want %d", got.Len(), want.Len())
		}
	}
	eval()
	inner := slpmatch.TabledNodes(root) // the nodes longer than a block
	if n := pl.CachedNodes(); n != inner {
		t.Fatalf("CachedNodes after SLP evaluation = %d, want %d", n, inner)
	}
	pl.Flush()
	if n := pl.CachedNodes(); n != 0 {
		t.Errorf("CachedNodes after Flush = %d, want 0", n)
	}
	eval()
	if n := pl.Retain(nil); n != inner || pl.CachedNodes() != 0 {
		t.Errorf("Retain of nothing forgot %d nodes, leaving %d", n, pl.CachedNodes())
	}
	eval()
	if n := pl.Retain([]*slp.Node{root}); n != 0 || pl.CachedNodes() != inner {
		t.Errorf("Retain of the live document forgot %d nodes, leaving %d of %d", n, pl.CachedNodes(), inner)
	}
}

func TestCountAndEnumerate(t *testing.T) {
	e := algebra.Union{L: prim(t, "!x{a}"), R: prim(t, "!x{b}")}
	pl := New(e, Options{})
	if got, _ := pl.CountPoll(Text([]byte("a")), nil); got != 1 {
		t.Errorf("Count = %d", got)
	}
	// Two matches of a on aa; early termination stops after the first.
	e2 := prim(t, "a*!x{a}a*")
	pl2 := New(e2, Options{})
	if got, _ := pl2.CountPoll(Text([]byte("aa")), nil); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	n := 0
	pl2.Enumerate(Text([]byte("aa")), nil, func(spans.Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early termination delivered %d tuples", n)
	}
}

// Selections directly over a join are evaluated inside it. EXPLAIN says
// so for the classes the join keys on — a variable on each side, none
// shared by both — and for no other; either way the relation is the
// reference's, and a materializing root counts its rows total on the
// root filter.
func TestSelectionsRunInsideTheJoin(t *testing.T) {
	const note = "physical: hash equi-join on content("
	l, r := prim(t, ".*!x{a+}!s{b+}.*"), prim(t, ".*!s{b+}!y{a+}(!w{b}|a*)")
	keyed := algebra.SelectEq{Z: spans.NewVarSet("x", "y"), Sub: algebra.Join{L: l, R: r}}
	shared := algebra.SelectEq{Z: spans.NewVarSet("s", "w"), Sub: algebra.Join{L: l, R: r}}
	apart := algebra.SelectEq{Z: spans.NewVarSet("x", "y"), Sub: algebra.Project{Keep: spans.NewVarSet("x", "y"), Sub: algebra.Join{L: l, R: r}}}
	docs := []string{"", "abab", "aabbaab", "abbabbab", "babaabab"}
	for name, c := range map[string]struct {
		e    algebra.Expr
		note string
	}{
		"keyed":                 {keyed, note + "x)=content(y) inside the join below"},
		"stacked":               {algebra.SelectEq{Z: spans.NewVarSet("s", "w"), Sub: keyed}, note + "x)=content(y) inside the join below"},
		"on a shared variable":  {shared, ""},
		"projection in between": {apart, ""},
	} {
		for _, opts := range []Options{{DisableRewrites: true}, {DisableRewrites: true, Schemaless: true}} {
			pl := New(c.e, opts)
			if ex := pl.Explain(); strings.Contains(ex, note) != (c.note != "") || !strings.Contains(ex, c.note) {
				t.Errorf("%s: EXPLAIN should carry %q:\n%s", name, c.note, ex)
			}
			checkAgainstNaive(t, c.e, opts, docs...)
		}
	}

	opts := Options{DisableRewrites: true, Schemaless: true, RequireTotal: spans.NewVarSet("w")}
	pl := New(keyed, opts)
	for _, doc := range docs {
		want := 0
		for _, tu := range keyed.Eval([]byte(doc), vset.Schemaless).Tuples() {
			if tu.TotalOn(opts.RequireTotal) {
				want++
			}
		}
		if n, complete := pl.CountPoll(Text([]byte(doc)), nil); n != want || !complete {
			t.Errorf("doc %q: CountPoll = %d (complete %t), want %d", doc, n, complete, want)
		}
	}
}
