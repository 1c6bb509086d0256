package enum

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

func deva(tb testing.TB, src string) (*automata.NFA, *automata.DEVA) {
	tb.Helper()
	return devaOver(tb, src, "ab")
}

func devaOver(tb testing.TB, src, alphabet string) (*automata.NFA, *automata.DEVA) {
	tb.Helper()
	n, err := regex.Parse(src)
	if err != nil {
		tb.Fatalf("Parse(%q): %v", src, err)
	}
	a, err := regex.Compile(n, regex.Options{Alphabet: []byte(alphabet)})
	if err != nil {
		tb.Fatalf("Compile(%q): %v", src, err)
	}
	return a, automata.Determinize(a)
}

func TestEnumExample11(t *testing.T) {
	nfa, d := deva(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	doc := []byte("ababbab")
	e := NewEnumerator(d, doc)
	got := e.All()
	want := vset.Eval(nfa, doc, vset.Schemaless)
	if !got.Equal(want) {
		t.Errorf("enum = %v\nwant %v", got, want)
	}
	if e.Count() != 4 {
		t.Errorf("Count = %d, want 4", e.Count())
	}
}

func TestEnumAgainstNaive(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a*}!y{b*}",
		".*!x{ab}.*",
		"!x{(a|b)*}",
		"!x{()}.*",          // empty span anywhere... bound at start only
		".*!x{()}.*",        // empty span at every position
		"!x{a+}(!y{b+})?.*", // optional binding (schemaless)
		"(!x{aa}|!x{bb}).*", // alternation bindings
		"a!x{.*}b|b!x{.*}a", // distinct contexts
	}
	docs := []string{"", "a", "b", "ab", "abab", "aabba", "bbbbbb", "abaabbab"}
	for _, src := range exprs {
		nfa, d := deva(t, src)
		for _, doc := range docs {
			e := NewEnumerator(d, []byte(doc))
			got := e.All()
			want := vset.Eval(nfa, []byte(doc), vset.Schemaless)
			if !got.Equal(want) {
				t.Errorf("%q on %q:\n enum %v\nnaive %v", src, doc, got, want)
			}
		}
	}
}

// CountTotal must agree with filtering the enumerated tuples, for every
// variable subset, and count without allocating.
func TestCountTotalMatchesEach(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a+}(!y{b+})?.*",
		"(!x{aa}|!x{bb}).*",
		".*!x{()}.*",
	}
	docs := []string{"", "ab", "abab", "aabba", "abaabbab"}
	varSets := []spans.VarSet{nil, spans.NewVarSet("x"), spans.NewVarSet("y"), spans.NewVarSet("x", "y"), spans.NewVarSet("nope")}
	for _, src := range exprs {
		_, d := deva(t, src)
		for _, doc := range docs {
			e := NewEnumerator(d, []byte(doc))
			for _, vars := range varSets {
				want := 0
				e.EachTotal(vars, func(spans.Tuple) bool { want++; return true })
				got, complete := e.CountTotal(vars, nil)
				if got != want || !complete {
					t.Errorf("%q on %q vars %v: CountTotal = %d (complete=%v), want %d", src, doc, vars, got, complete, want)
				}
			}
		}
	}
}

func TestCountTotalPollAborts(t *testing.T) {
	_, d := deva(t, ".*!x{a*}.*")
	e := NewEnumerator(d, []byte("aaaaaaaa"))
	total := e.Count()
	if total < 10 {
		t.Fatalf("test needs a larger result, got %d", total)
	}
	seen := 0
	n, complete := e.CountTotal(nil, func() bool { seen++; return seen < 5 })
	if complete || n != 5 {
		t.Errorf("aborted CountTotal = (%d, %v), want (5, false)", n, complete)
	}
}

func TestCountWalkAllocFree(t *testing.T) {
	_, d := deva(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	e := NewEnumerator(d, []byte("abababbaab"))
	if allocs := testing.AllocsPerRun(10, func() { e.Count() }); allocs > 0 {
		t.Errorf("Count allocates %.1f times per run, want 0", allocs)
	}
}

func TestEnumNoDuplicates(t *testing.T) {
	_, d := deva(t, ".*!x{a*}.*")
	doc := []byte("aaaa")
	e := NewEnumerator(d, doc)
	seen := map[string]bool{}
	e.Each(func(tp spans.Tuple) bool {
		k := tp.Key()
		if seen[k] {
			t.Errorf("duplicate tuple %v", tp)
		}
		seen[k] = true
		return true
	})
}

func TestEnumEarlyStop(t *testing.T) {
	_, d := deva(t, ".*!x{a}.*")
	doc := []byte("aaaaaaaa")
	e := NewEnumerator(d, doc)
	n := 0
	e.Each(func(spans.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop after %d outputs", n)
	}
}

func TestEnumEmptyResult(t *testing.T) {
	_, d := deva(t, "!x{a}")
	e := NewEnumerator(d, []byte("b"))
	if e.Count() != 0 {
		t.Error("expected empty result")
	}
	e2 := NewEnumerator(d, nil)
	if e2.Count() != 0 {
		t.Error("expected empty result on empty doc")
	}
}

func TestEnumEmptyDocument(t *testing.T) {
	_, d := deva(t, "!x{a*}")
	e := NewEnumerator(d, nil)
	got := e.All()
	if got.Len() != 1 || !got.Contains(spans.NewTuple("x", spans.S(1, 1))) {
		t.Errorf("enum on empty doc = %v", got)
	}
}

func TestEnumRandomCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20220612))
	exprs := []string{
		"!x{(a|b)+}!y{(a|b)+}",
		".*a!x{b*}a.*",
		"!x{.*}!y{.*}",
	}
	for _, src := range exprs {
		nfa, d := deva(t, src)
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(10) + 1
			doc := make([]byte, n)
			for i := range doc {
				doc[i] = "ab"[rng.Intn(2)]
			}
			e := NewEnumerator(d, doc)
			got := e.All()
			want := vset.Eval(nfa, doc, vset.Schemaless)
			if !got.Equal(want) {
				t.Fatalf("%q on %q:\n enum %v\nnaive %v", src, doc, got, want)
			}
		}
	}
}

// TestEnumDeterministicOrder: two runs produce the same sequence, and the
// sequence is sorted by (first event boundary, mask value, ...).
func TestEnumDeterministicOrder(t *testing.T) {
	_, d := deva(t, ".*!x{a(a|b)?}.*")
	doc := []byte("aabab")
	run := func() []string {
		var out []string
		e := NewEnumerator(d, doc)
		e.Each(func(tp spans.Tuple) bool {
			out = append(out, tp.Key())
			return true
		})
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestFastCountMatchesEnumeration(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		".*!x{a+}.*",
		"!x{a*}(!y{b})?",
	}
	for _, src := range exprs {
		_, d := deva(t, src)
		for _, doc := range []string{"", "a", "ab", "abab", "bbbb", "aabba"} {
			e := NewEnumerator(d, []byte(doc))
			if got := FastCount(d, []byte(doc)); got.Int64() != int64(e.Count()) {
				t.Errorf("%q on %q: FastCount = %v, enum = %d", src, doc, got, e.Count())
			}
		}
	}
}

// BenchmarkNewEnumerator measures the preprocessing phase alone — the
// dominant per-request cost of /count and /stream on plain documents.
func BenchmarkNewEnumerator(b *testing.B) {
	_, d := deva(b, ".*!x{ab}.*")
	rng := rand.New(rand.NewSource(99))
	doc := make([]byte, 1<<12)
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEnumerator(d, doc)
	}
}

// TestCountTotalFastMatchesWalk pins the output-independent counting DP
// to the mask-accumulating walk for every variable subset, and checks
// the poll hook aborts it.
func TestCountTotalFastMatchesWalk(t *testing.T) {
	exprs := []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a+}(!y{b+})?.*",
		"(!x{aa}|!x{bb}).*",
		".*!x{()}.*",
		".*!x{ab}.*",
	}
	docs := []string{"", "a", "ab", "abab", "aabba", "abaabbab", "bbbbbbbbbb"}
	varSets := []spans.VarSet{nil, spans.NewVarSet("x"), spans.NewVarSet("y"), spans.NewVarSet("x", "y"), spans.NewVarSet("nope")}
	for _, src := range exprs {
		_, d := deva(t, src)
		for _, doc := range docs {
			e := NewEnumerator(d, []byte(doc))
			for _, vars := range varSets {
				want, _ := e.CountTotal(vars, nil)
				got, complete, ok := CountTotalFast(d, []byte(doc), vars, nil)
				if !ok || !complete || got != want {
					t.Errorf("%q on %q vars %v: CountTotalFast = (%d, %v, %v), want (%d, true, true)", src, doc, vars, got, complete, ok, want)
				}
			}
		}
	}

	_, d := deva(t, ".*!x{ab}.*")
	if n, complete, ok := CountTotalFast(d, []byte("ababab"), nil, func() bool { return false }); !ok || complete || n != 0 {
		t.Errorf("aborted CountTotalFast = (%d, %v, %v), want (0, false, true)", n, complete, ok)
	}
}

// TestFastCountOverflow pins the big.Int path: with nine variables the
// count on 128 letters passes 2^63, the int64 DP declines, and the
// arithmetic repeats over the reached states. The dense backward DP is
// the oracle (the walk would not finish).
func TestFastCountOverflow(t *testing.T) {
	src := ".*"
	for _, v := range "abcdefghi" {
		src += fmt.Sprintf("!%c{.*}.*", v)
	}
	_, d := deva(t, src)
	doc := []byte(strings.Repeat("ab", 64))
	if _, _, ok := CountTotalFast(d, doc, nil, nil); ok {
		t.Fatal("CountTotalFast answered a count that does not fit int64")
	}
	got, want := FastCount(d, doc), denseFastCount(d, doc)
	if got.Cmp(want) != 0 || got.IsInt64() {
		t.Errorf("FastCount = %v, dense reference %v (must agree and exceed int64)", got, want)
	}
	// On a shorter document the count fits, and the int64 path must say
	// what the reference says.
	short := doc[:40]
	if got, want := FastCount(d, short), denseFastCount(d, short); got.Cmp(want) != 0 || !got.IsInt64() {
		t.Errorf("FastCount on %d letters = %v, dense reference %v", len(short), got, want)
	}
}

// TestCountTotalFastWideSubsets: four required variables on a DEVA of a
// few hundred states — 2^k·|Q| cells, which the dense DP refused to
// allocate — is answered by the DP over reached pairs, and agrees with
// the walk.
func TestCountTotalFastWideSubsets(t *testing.T) {
	_, d := deva(t, "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)!w{a}.*!x{b}.*!y{a+}.*!z{b}.*")
	vars := d.Index.Vars()
	if cells := d.NumStates() << len(vars); len(vars) != 4 || cells <= 4096 {
		t.Fatalf("test needs four variables and more than 4096 subset cells, got %d variables, %d cells", len(vars), cells)
	}
	rng := rand.New(rand.NewSource(16))
	doc := make([]byte, 48)
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	want, _ := NewEnumerator(d, doc).CountTotal(vars, nil)
	got, complete, ok := CountTotalFast(d, doc, vars, nil)
	if !ok || !complete || got != want || want == 0 {
		t.Errorf("CountTotalFast = (%d, %v, %v), walk counts %d (want a non-zero count, answered by the DP)", got, complete, ok, want)
	}
}

// ---- Log documents and the benchmark's three patterns ---------------------

const logAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 :=[]>-.\n"

// The prepared queries of bench/ (gen.go), which is a module of its own
// and cannot be imported.
const (
	logLinePrefix = `(.*\n)?\[[0-9][0-9]:[0-9][0-9]\] `
	logLineSuffix = `\n(.*\n?)?`
)

var logPatterns = []struct{ name, src string }{
	{"rec", logLinePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=!msg{[a-z ]+}` + logLineSuffix},
	{"denied", logLinePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=denied` + logLineSuffix},
	{"tok", `.*!x{timeout}.*`},
}

func logDEVA(tb testing.TB, src string) *automata.DEVA {
	tb.Helper()
	_, d := devaOver(tb, src, logAlphabet)
	return d
}

// logDoc generates whole "[hh:mm] svc req=rN msg=MSG\n" lines up to size
// bytes.
func logDoc(rng *rand.Rand, size int) []byte {
	services := []string{"auth", "billing", "gateway", "search"}
	messages := []string{"timeout", "retry", "ok", "cache miss", "denied"}
	var sb strings.Builder
	for {
		line := fmt.Sprintf("[%02d:%02d] %s req=r%d msg=%s\n", rng.Intn(24), rng.Intn(60),
			services[rng.Intn(len(services))], rng.Intn(8), messages[rng.Intn(len(messages))])
		if sb.Len()+len(line) > size {
			return []byte(sb.String())
		}
		sb.WriteString(line)
	}
}

// ---- The dense reference ---------------------------------------------------

// denseReference is the implementation this package had before the sparse
// one: three (|doc|+1)×|Q| tables filled by a backward pass over every
// state at every position. It stays as the oracle for the ORDER of Each
// (the naive evaluator only knows the set) and for counts too large to
// enumerate.
type denseReference struct {
	c   *automata.CompiledDEVA
	doc []byte

	// Flat (n+1)×Q tables, indexed [i*nq+q].
	flags     []uint8
	jump      []int32 // next boundary ≥ i with a live mask event, following letters; -1 if none
	jumpState []int32 // automaton state at that boundary
}

const (
	denseAliveNoMask = 1 << iota // accepting run from (q,i) whose next action is a letter (or i=n and final)
	denseAlive                   // accepting run from (q,i), mask at i still allowed
	denseFinishable              // pure-letter run from (q,i) to acceptance, no further masks
)

func newDenseReference(d *automata.DEVA, doc []byte) *denseReference {
	n := len(doc)
	c := d.Compiled()
	nq := c.NQ
	cells := (n + 1) * nq
	e := &denseReference{c: c, doc: doc, flags: make([]uint8, cells), jump: make([]int32, cells), jumpState: make([]int32, cells)}
	for q := 0; q < nq; q++ {
		if c.Final[q] {
			e.flags[n*nq+q] = denseAliveNoMask | denseFinishable
		}
	}
	for i := n; i >= 0; i-- {
		var steps []int32
		if i < n {
			steps = c.StepsFor(doc[i])
		}
		row := e.flags[i*nq : (i+1)*nq]
		if steps != nil {
			next := e.flags[(i+1)*nq : (i+2)*nq]
			for q := 0; q < nq; q++ {
				if s := steps[q]; s >= 0 {
					if next[s]&denseAlive != 0 {
						row[q] = denseAliveNoMask
					}
					row[q] |= next[s] & denseFinishable
				}
			}
		}
		for q := 0; q < nq; q++ {
			ix := i*nq + q
			event := false
			for _, me := range c.MaskEdges[q] {
				event = event || row[me.To]&denseAliveNoMask != 0
			}
			if event || row[q]&denseAliveNoMask != 0 {
				row[q] |= denseAlive
			}
			switch {
			case event:
				e.jump[ix], e.jumpState[ix] = int32(i), int32(q)
			case steps != nil && steps[q] >= 0:
				e.jump[ix], e.jumpState[ix] = e.jump[(i+1)*nq+int(steps[q])], e.jumpState[(i+1)*nq+int(steps[q])]
			default:
				e.jump[ix], e.jumpState[ix] = -1, -1
			}
		}
	}
	return e
}

// each yields the fired events of every accepting run, in the order the
// dense implementation enumerated them.
func (e *denseReference) each(q, i int, events []event, f func([]event)) {
	nq := e.c.NQ
	if e.flags[i*nq+q]&denseFinishable != 0 {
		f(events)
	}
	n := len(e.doc)
	for {
		j := e.jump[i*nq+q]
		if j < 0 {
			return
		}
		qj, jb := int(e.jumpState[i*nq+q]), int(j)
		for _, me := range e.c.MaskEdges[qj] {
			if e.flags[jb*nq+int(me.To)]&denseAliveNoMask == 0 {
				continue
			}
			ev := append(events, event{jb, me.Mask})
			if jb == n {
				f(ev)
				continue
			}
			e.each(int(e.c.Step(int(me.To), e.doc[jb])), jb+1, ev, f)
		}
		if jb == n {
			return
		}
		s := e.c.Step(qj, e.doc[jb])
		if s < 0 {
			return
		}
		q, i = int(s), jb+1
	}
}

// denseFastCount is the backward big.Int DP over all |Q| states per
// position that FastCount used to be.
func denseFastCount(d *automata.DEVA, doc []byte) *big.Int {
	c := d.Compiled()
	nq := c.NQ
	runs, noMask := make([]*big.Int, nq), make([]*big.Int, nq)
	for q := range runs {
		runs[q], noMask[q] = new(big.Int), new(big.Int)
		if c.Final[q] {
			noMask[q].SetInt64(1)
		}
	}
	combine := func() {
		for q := 0; q < nq; q++ {
			runs[q].Set(noMask[q])
			for _, me := range c.MaskEdges[q] {
				runs[q].Add(runs[q], noMask[me.To])
			}
		}
	}
	combine()
	for i := len(doc) - 1; i >= 0; i-- {
		steps := c.StepsFor(doc[i])
		next := make([]*big.Int, nq)
		for q := range next {
			next[q] = new(big.Int)
			if steps != nil && steps[q] >= 0 {
				next[q].Set(runs[steps[q]])
			}
		}
		noMask = next
		combine()
	}
	return runs[c.Start]
}

// agreeWithDense checks, for one (DEVA, document) pair, that the sparse
// enumerator yields the dense reference's SEQUENCE and that every counting
// entry point returns the reference's numbers for vars = ∅ and = all.
func agreeWithDense(t *testing.T, label string, d *automata.DEVA, doc []byte) {
	t.Helper()
	e := NewEnumerator(d, doc)
	var got, want []string
	e.Each(func(tp spans.Tuple) bool { got = append(got, tp.Key()); return true })
	all, ok := d.Index.OpenBits(d.Index.Vars())
	if !ok {
		t.Fatalf("%s: OpenBits of the index's own variables failed", label)
	}
	total := 0
	newDenseReference(d, doc).each(d.Start, 0, nil, func(events []event) {
		want = append(want, e.tuple(events).Key())
		var acc automata.Mask
		for _, ev := range events {
			acc |= ev.mask
		}
		if acc&all == all {
			total++
		}
	})
	if len(got) != len(want) {
		t.Fatalf("%s on %q: %d tuples, dense reference %d", label, doc, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s on %q: tuple %d is %s, dense reference %s", label, doc, i, got[i], want[i])
		}
	}
	for _, c := range []struct {
		vars spans.VarSet
		want int
	}{{nil, len(want)}, {d.Index.Vars(), total}} {
		if n, complete := e.CountTotal(c.vars, nil); n != c.want || !complete {
			t.Errorf("%s on %q vars %v: CountTotal = (%d, %v), dense reference %d", label, doc, c.vars, n, complete, c.want)
		}
		if n, complete, ok := CountTotalFast(d, doc, c.vars, nil); !ok || !complete || n != c.want {
			t.Errorf("%s on %q vars %v: CountTotalFast = (%d, %v, %v), dense reference %d", label, doc, c.vars, n, complete, ok, c.want)
		}
	}
	if n := FastCount(d, doc); n.Cmp(denseFastCount(d, doc)) != 0 || n.Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Errorf("%s on %q: FastCount = %v, dense reference %d", label, doc, n, len(want))
	}
}

// randomDEVA draws a small deterministic automaton directly — letter and
// mask edges anywhere, including dead ends and unreachable states — so the
// comparison is not limited to shapes Determinize produces.
func randomDEVA(rng *rand.Rand) *automata.DEVA {
	nq := 2 + rng.Intn(6)
	d := &automata.DEVA{
		Index:   automata.NewMaskIndex(spans.NewVarSet("x", "y")),
		Final:   make([]bool, nq),
		Letters: make([]map[byte]int, nq),
		Masks:   make([]map[automata.Mask]int, nq),
	}
	for q := 0; q < nq; q++ {
		d.Final[q] = rng.Intn(3) == 0
		d.Letters[q] = map[byte]int{}
		for _, b := range []byte("ab") {
			if rng.Intn(4) > 0 {
				d.Letters[q][b] = rng.Intn(nq)
			}
		}
		d.Masks[q] = map[automata.Mask]int{}
		for k := rng.Intn(3); k > 0; k-- {
			d.Masks[q][automata.Mask(1+rng.Intn(15))] = rng.Intn(nq)
		}
	}
	return d
}

func TestSparseMatchesDenseSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(20220612))
	for trial := 0; trial < 300; trial++ {
		d := randomDEVA(rng)
		doc := make([]byte, rng.Intn(9))
		for i := range doc {
			doc[i] = "aabbc"[rng.Intn(5)] // c: a byte no transition reads
		}
		agreeWithDense(t, fmt.Sprintf("random DEVA %d", trial), d, doc)
	}
	for _, src := range []string{
		"!x{(a|b)*}!y{b}!z{(a|b)*}",
		"!x{a*}!y{b*}",
		".*!x{ab}.*",
		"!x{(a|b)*}",
		"!x{()}.*",
		".*!x{()}.*",
		"!x{a+}(!y{b+})?.*",
		"(!x{aa}|!x{bb}).*",
		"a!x{.*}b|b!x{.*}a",
	} {
		_, d := deva(t, src)
		for _, doc := range []string{"", "a", "b", "ab", "abab", "aabba", "bbbbbb", "abaabbab", "abcab", "c"} {
			agreeWithDense(t, src, d, []byte(doc))
		}
	}
	for _, p := range logPatterns {
		d := logDEVA(t, p.src)
		doc := logDoc(rng, 2048)
		agreeWithDense(t, p.name, d, doc)
		agreeWithDense(t, p.name, d, nil)
		agreeWithDense(t, p.name, d, doc[:len(doc)-1]) // last line unterminated
		foreign := append([]byte(nil), doc...)
		foreign[len(foreign)/2] = '#' // outside logAlphabet
		agreeWithDense(t, p.name, d, foreign)
	}
}

// ---- Shape guards: these fail if the dense form comes back ----------------

// stored is the number of records the preprocessing keeps.
func (e *Enumerator) stored() int { return len(e.arr) + len(e.fires) }

// TestStoredRecordsFollowTheRuns: on the log patterns the tables hold a
// few records per byte whatever |Q| is, and states no run of the document
// reaches add nothing.
func TestStoredRecordsFollowTheRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range logPatterns {
		d := logDEVA(t, p.src)
		for _, size := range []int{4 << 10, 64 << 10} {
			doc := logDoc(rng, size)
			if got, max := NewEnumerator(d, doc).stored(), 4*(len(doc)+1); got > max {
				t.Errorf("%s (%d states) on %d bytes: %d stored records, want at most %d", p.name, d.NumStates(), len(doc), got, max)
			}
		}
	}

	_, d := deva(t, "!x{(a|b)*}!y{b}!z{(a|b)*}")
	padded := &automata.DEVA{Index: d.Index, Start: d.Start, Final: d.Final, Letters: d.Letters, Masks: d.Masks}
	for i, first := 0, d.NumStates(); i < 200; i++ { // a component the start state never enters
		q := first + i
		to := first + (i+1)%200
		padded.Final = append(padded.Final[:q:q], i%7 == 0)
		padded.Letters = append(padded.Letters[:q:q], map[byte]int{'a': to, 'b': q})
		padded.Masks = append(padded.Masks[:q:q], map[automata.Mask]int{1: to})
	}
	doc := []byte("abababbaabbabababbab")
	e, ep := NewEnumerator(d, doc), NewEnumerator(padded, doc)
	if e.stored() != ep.stored() || e.Count() != ep.Count() {
		t.Errorf("padding with 200 unreached states: %d records and %d tuples became %d and %d", e.stored(), e.Count(), ep.stored(), ep.Count())
	}
}

// TestNewEnumeratorAllocsPerTable: preprocessing allocates its tables (and
// regrows them a few times), never something per position.
func TestNewEnumeratorAllocsPerTable(t *testing.T) {
	d := logDEVA(t, logPatterns[0].src)
	doc := logDoc(rand.New(rand.NewSource(4)), 64<<10)
	d.Compiled()
	if allocs := testing.AllocsPerRun(5, func() { NewEnumerator(d, doc) }); allocs > 16 {
		t.Errorf("NewEnumerator allocates %.0f times on %d bytes, want at most 16", allocs, len(doc))
	}
}

// maxDelay replays Each's walk over the tables and returns the largest
// number of elementary steps — links followed and fired edges inspected —
// between two consecutive outputs (or the start and the first output).
func maxDelay(e *Enumerator) int {
	steps, worst := 0, 0
	output := func() { worst, steps = max(worst, steps), 0 }
	var walk func(x int32)
	walk = func(x int32) {
		if e.finishable[x] {
			output()
		}
		for k := e.arr[x].jump; k >= 0; k = e.arr[x].jump {
			steps++
			for x = e.fires[k].from; int(k) < len(e.fires) && e.fires[k].from == x; k++ {
				steps++
				fd := e.fires[k]
				if !e.live(fd) {
					continue
				}
				if fd.next < 0 {
					output()
				} else {
					walk(fd.next)
				}
			}
			steps++
			if x = e.arr[x].next; x < 0 {
				break
			}
		}
	}
	walk(0)
	return worst
}

// TestDelayIndependentOfDocument is E1's constant-delay column as a test:
// the worst gap between two outputs is the same on 2^10 and 2^16 letters.
func TestDelayIndependentOfDocument(t *testing.T) {
	periodic := func(n int) []byte { return []byte(strings.Repeat("ab", n/2)) }
	for _, src := range []string{".*!x{ab}.*", "!x{(a|b)*}!y{b}!z{(a|b)*}", ".*!x{a(a|b)?}.*"} {
		_, d := deva(t, src)
		small, large := maxDelay(NewEnumerator(d, periodic(1<<10))), maxDelay(NewEnumerator(d, periodic(1<<16)))
		if small != large || small == 0 {
			t.Errorf("%q: worst delay %d steps on 2^10 letters, %d on 2^16", src, small, large)
		}
	}
}

// ---- Fuzzing against the naive evaluator ----------------------------------

var fuzzTokens = []string{"a", "b", "c", ".", "(", ")", "|", "*", "+", "?", "!x{", "!y{", "!z{", "}"}

// FuzzEnumVsNaive decodes the first input into a pattern over {a,b,c}
// with up to three variables (one token per byte) and the second into a
// document (d is outside the alphabet): whatever parses and compiles must
// enumerate exactly the naive evaluator's relation, and every counting
// entry point must agree with it.
func FuzzEnumVsNaive(f *testing.F) {
	f.Add([]byte{3, 7, 10, 0, 1, 13, 3, 7}, []byte("abab"))                   // .*!x{ab}.*
	f.Add([]byte{10, 0, 8, 13, 4, 11, 1, 8, 13, 5, 9, 3, 7}, []byte{0, 0, 1}) // !x{a+}(!y{b+})?.*
	f.Add([]byte{10, 4, 5, 13, 3, 7}, []byte{})                               // !x{()}.*
	f.Add([]byte{3, 7, 12, 2, 13, 3, 7}, []byte{2, 3, 2})                     // .*!z{c}.* on "cdc"
	f.Fuzz(func(t *testing.T, pat, text []byte) {
		if len(pat) > 24 || len(text) > 10 {
			return
		}
		var src strings.Builder
		for _, b := range pat {
			src.WriteString(fuzzTokens[int(b)%len(fuzzTokens)])
		}
		node, err := regex.Parse(src.String())
		if err != nil {
			return
		}
		nfa, err := regex.Compile(node, regex.Options{Alphabet: []byte("abc")})
		if err != nil {
			return
		}
		if nfa.NumStates() > 256 {
			return // nested + doubles the automaton each time
		}
		if _, ok := automata.DeterminizedStatesAtMost(nfa, 256); !ok {
			return // a determinization blow-up: the planner's budget, not this package's subject
		}
		doc := make([]byte, len(text))
		for i, b := range text {
			doc[i] = "abcd"[b%4]
		}
		d := automata.Determinize(nfa)
		want := vset.Eval(nfa, doc, vset.Schemaless)
		e := NewEnumerator(d, doc)
		if got := e.All(); !got.Equal(want) {
			t.Fatalf("%q on %q:\n enum %v\nnaive %v", src.String(), doc, got, want)
		}
		vars := d.Index.Vars()
		total := 0
		for _, tp := range want.Tuples() {
			if tp.TotalOn(vars) {
				total++
			}
		}
		for _, c := range []struct {
			vars spans.VarSet
			want int
		}{{nil, want.Len()}, {vars, total}} {
			if n, complete := e.CountTotal(c.vars, nil); n != c.want || !complete {
				t.Errorf("%q on %q vars %v: CountTotal = (%d, %v), naive %d", src.String(), doc, c.vars, n, complete, c.want)
			}
			if n, complete, ok := CountTotalFast(d, doc, c.vars, nil); !ok || !complete || n != c.want {
				t.Errorf("%q on %q vars %v: CountTotalFast = (%d, %v, %v), naive %d", src.String(), doc, c.vars, n, complete, ok, c.want)
			}
		}
		if n := FastCount(d, doc); n.Cmp(big.NewInt(int64(want.Len()))) != 0 {
			t.Errorf("%q on %q: FastCount = %v, naive %d", src.String(), doc, n, want.Len())
		}
	})
}

// ---- Benchmarks on the log patterns (the serve_plain shapes) ---------------

func BenchmarkLogPreprocess(b *testing.B) {
	doc := logDoc(rand.New(rand.NewSource(1)), 64<<10)
	for _, p := range logPatterns {
		d := logDEVA(b, p.src)
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewEnumerator(d, doc)
			}
		})
	}
}

func BenchmarkLogCountTotalFast(b *testing.B) {
	doc := logDoc(rand.New(rand.NewSource(1)), 64<<10)
	for _, p := range logPatterns {
		d := logDEVA(b, p.src)
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := CountTotalFast(d, doc, d.Index.Vars(), nil); !ok {
					b.Fatal("DP declined")
				}
			}
		})
	}
}
