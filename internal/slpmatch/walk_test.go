package slpmatch

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"docspanner/internal/automata"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// walkTokens spells fuzz and random patterns one token per byte: up to
// three variables over {a,b,c}.
var walkTokens = []string{"a", "b", "c", ".", "(", ")", "|", "*", "+", "?", "!x{", "!y{", "!z{", "}"}

// tokenPattern decodes pat into a pattern and compiles it, reporting
// false for patterns that do not parse or whose automaton is too large
// to be a useful test case.
func tokenPattern(pat []byte) (string, *automata.NFA, *automata.DEVA, bool) {
	var src strings.Builder
	for _, b := range pat {
		src.WriteString(walkTokens[int(b)%len(walkTokens)])
	}
	node, err := regex.Parse(src.String())
	if err != nil {
		return "", nil, nil, false
	}
	nfa, err := regex.Compile(node, regex.Options{Alphabet: []byte("abc")})
	if err != nil || nfa.NumStates() > 256 {
		return "", nil, nil, false
	}
	if _, ok := automata.DeterminizedStatesAtMost(nfa, 256); !ok {
		return "", nil, nil, false
	}
	return src.String(), nfa, automata.Determinize(nfa), true
}

// collect returns the tuples an enumeration emits, in order.
func collect(each func(func(spans.Tuple) bool)) []spans.Tuple {
	var out []spans.Tuple
	each(func(t spans.Tuple) bool { out = append(out, t); return true })
	return out
}

// sameSequence reports the first position where two tuple sequences
// differ, or −1.
func sameSequence(a, b []spans.Tuple) int {
	for i := range a {
		if i >= len(b) || !a[i].Equal(b[i]) {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// checkAgainstReference asserts that the walk and the reference walk
// agree on ix and root: the same tuple sequence from Each, the same
// prefix under early stop, the same counts from CountTotal with and
// without required variables, and the same partial count under a poll
// abort; and NonEmpty holds iff there is a tuple. It returns the full
// sequence.
func checkAgainstReference(t *testing.T, name string, ix *Index, root *slp.Node) []spans.Tuple {
	t.Helper()
	tab := refTable(ix, root)
	got := collect(func(f func(spans.Tuple) bool) { ix.Each(root, f) })
	want := collect(func(f func(spans.Tuple) bool) { refEach(ix, tab, root, f) })
	if i := sameSequence(got, want); i >= 0 {
		t.Fatalf("%s: Each diverges from the reference at tuple %d (%d vs %d tuples)", name, i, len(got), len(want))
	}
	if ne := ix.NonEmpty(root); ne != (len(want) > 0) {
		t.Fatalf("%s: NonEmpty = %v with %d tuples", name, ne, len(want))
	}
	for _, stop := range []int{1, 2, len(want) / 2} {
		if stop == 0 || stop >= len(want) {
			continue
		}
		var prefix []spans.Tuple
		ix.Each(root, func(tp spans.Tuple) bool {
			prefix = append(prefix, tp)
			return len(prefix) < stop
		})
		if i := sameSequence(prefix, want[:stop]); i >= 0 {
			t.Fatalf("%s: early stop after %d diverges at tuple %d", name, stop, i)
		}
	}
	vars := ix.c.DEVA.Index.Vars()
	for _, vs := range []spans.VarSet{nil, vars} {
		n, complete := ix.CountTotal(root, vs, nil)
		rn, rcomplete := refCountTotal(ix, tab, root, vs, nil)
		if n != rn || !complete || !rcomplete {
			t.Fatalf("%s: CountTotal(%v) = (%d, %v), reference (%d, %v)", name, vs, n, complete, rn, rcomplete)
		}
		if vs == nil && n != len(want) {
			t.Fatalf("%s: CountTotal = %d, Each emitted %d", name, n, len(want))
		}
		for _, budget := range []int{1, n / 2} {
			if budget == 0 || budget >= n {
				continue
			}
			poll := func(left int) func() bool {
				return func() bool { left--; return left > 0 }
			}
			pn, pc := ix.CountTotal(root, vs, poll(budget))
			rpn, rpc := refCountTotal(ix, tab, root, vs, poll(budget))
			if pn != rpn || pc || rpc {
				t.Fatalf("%s: CountTotal(%v) aborted after %d polls = (%d, %v), reference (%d, %v)", name, vs, budget, pn, pc, rpn, rpc)
			}
		}
	}
	return got
}

// TestWalkMatchesReference pins the frame-resuming walk to the
// root-re-descending reference on random automata over random, repeated,
// CDE-edited and empty documents, on documents around the block length
// (B−1, B, B+1 and 2B+1 bytes), and on a CDE concatenation that starts
// and ends with a block, so finish runs right after a block scan; on an
// automaton of more than 64 states, whose vectors take several words;
// and on the log patterns over a CDE-concatenated log.
func TestWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ixs []*Index
	var srcs []string
	for len(ixs) < 24 {
		pat := make([]byte, 3+rng.Intn(14))
		for i := range pat {
			pat[i] = byte(rng.Intn(len(walkTokens)))
		}
		src, _, d, ok := tokenPattern(pat)
		if !ok || len(d.Index.Vars()) == 0 {
			continue
		}
		ixs = append(ixs, NewIndex(d))
		srcs = append(srcs, src)
	}
	// .*a(a|b)^6 needs a state per suffix of length 7: 128 states.
	wide := `.*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)!x{c}(!y{a})?.*`
	ixs = append(ixs, NewIndex(spannerDEVA(t, wide)))
	srcs = append(srcs, wide)
	if nq := ixs[len(ixs)-1].nq; nq <= 64 {
		t.Fatalf("%s has %d states, want more than 64", wide, nq)
	}
	randomText := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return b
	}
	compressed := func(n int) *slp.Node { return slp.Balance(slp.Compress(randomText(n))) }
	for k, ix := range ixs {
		db := slp.NewDB()
		base := compressed(8 + rng.Intn(4*blockLen))
		db.Add("D", base)
		db.Add("S", compressed(1+rng.Intn(blockLen)))
		n := base.Len()
		i := 1 + rng.Int63n(n)
		j := i + rng.Int63n(n-i+1)
		docs := map[string]*slp.Node{
			"empty":    nil,
			"repeat":   slp.Repeat(slp.FromBytes(randomText(1+rng.Intn(4))), 1+rng.Int63n(40)),
			"balanced": base,
		}
		// The wide pattern matches each c here.
		docs["(abababac)^16"] = slp.Balance(slp.Compress([]byte(strings.Repeat("abababac", 16))))
		for _, m := range []int{blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 1} {
			docs[fmt.Sprintf("%d bytes", m)] = compressed(m)
		}
		for _, expr := range []string{
			fmt.Sprintf("copy(D,%d,%d,%d)", i, j, 1+rng.Int63n(n+1)),
			fmt.Sprintf("delete(D,%d,%d)", i, j),
			fmt.Sprintf("insert(D,extract(D,%d,%d),%d)", i, j, 1+rng.Int63n(n+1)),
			"concat(D,D)",
			"concat(S,concat(D,S))",
		} {
			e, err := slp.ParseCDE(expr)
			if err != nil {
				t.Fatal(err)
			}
			if docs[expr], err = db.Eval(e); err != nil {
				t.Fatal(err)
			}
		}
		tuples := 0
		for name, root := range docs {
			tuples += len(checkAgainstReference(t, fmt.Sprintf("%q on %s", srcs[k], name), ix, root))
		}
		if srcs[k] == wide && tuples == 0 {
			t.Fatalf("%s: no tuples on any document", wide)
		}
	}

	root := compressedLog(rand.New(rand.NewSource(5)), 4, 2<<10, 8)
	for _, q := range logQueries {
		got := checkAgainstReference(t, q.name+" on the concatenated log", logIndex(t, q.src), root)
		if len(got) == 0 {
			t.Fatalf("%s: no tuples on the concatenated log", q.name)
		}
	}
}

// TestWalkDelayShape counts the long nodes the walk expands — one
// alive-vector pullback each — and the block bytes it reads, for
// .*!x{ab}.* on (ab)^{n/2}. Resuming through frames makes both per tuple
// independent of the document length, and the gap between two outputs
// stays O(ord(root)) expansions and O(blockLen) bytes, the survey's
// O(log |D|) delay plus a constant. The reference walk re-descends from
// the root for every event, so its expansions per tuple grow with ord.
func TestWalkDelayShape(t *testing.T) {
	ix := NewIndex(spannerDEVA(t, ".*!x{ab}.*"))
	var perTuple, bytesPerTuple []float64
	for lg := 12; lg <= 20; lg += 2 {
		n := int64(1) << lg
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		ix.Warm(root)
		ord := int(root.Order())

		// Count-only mode walks the same nodes; poll marks each tuple.
		e := &cenum{ix: ix, root: root, countOnly: true}
		tuples, last, lastBytes, maxGap, maxBytes := 0, 0, 0, 0, 0
		gap := func() {
			maxGap = max(maxGap, e.expanded-last)
			maxBytes = max(maxBytes, e.scanned-lastBytes)
			last, lastBytes = e.expanded, e.scanned
		}
		e.poll = func() bool {
			gap()
			tuples++
			return true
		}
		e.run(nil)
		gap()
		if int64(tuples) != n/2 {
			t.Fatalf("n=2^%d: %d tuples, want %d", lg, tuples, n/2)
		}
		if maxGap > 4*ord {
			t.Errorf("n=2^%d: %d expansions between two outputs, want ≤ 4·ord = %d", lg, maxGap, 4*ord)
		}
		// A scan of a two-block text reads the text (2B), forward checks
		// started while they have read less than twice the text, and
		// at most one pullback (2B): a multiple of B, whatever n is.
		if maxBytes > 8*blockLen {
			t.Errorf("n=2^%d: %d block bytes read between two outputs, want ≤ 8·B = %d", lg, maxBytes, 8*blockLen)
		}
		per, perBytes := float64(e.expanded)/float64(tuples), float64(e.scanned)/float64(tuples)
		perTuple = append(perTuple, per)
		bytesPerTuple = append(bytesPerTuple, perBytes)

		t.Logf("n=2^%d ord=%d: %.2f expansions and %.2f block bytes per tuple, max gaps %d and %d", lg, ord, per, perBytes, maxGap, maxBytes)
		if lg <= 16 { // the reference expands about ord nodes per tuple
			ref := &refEnum{cenum: cenum{ix: ix, root: root, countOnly: true}, tab: refTable(ix, root)}
			ref.dfs(ix.c.Start, 0, nil, 0)
			t.Logf("n=2^%d: reference walk %.2f expansions per tuple", lg, float64(ref.expanded)/float64(tuples))
		}
	}
	if first, lastPer := perTuple[0], perTuple[len(perTuple)-1]; lastPer > 1.1*first {
		t.Errorf("expansions per tuple grow with the document: %.2f at 2^12, %.2f at 2^20", first, lastPer)
	}
	if first, lastPer := bytesPerTuple[0], bytesPerTuple[len(bytesPerTuple)-1]; lastPer > 1.1*first {
		t.Errorf("block bytes per tuple grow with the document: %.2f at 2^12, %.2f at 2^20", first, lastPer)
	}
}

// FuzzCompressedEnumVsNaive decodes a pattern over {a,b,c} (one token per
// byte) and a document (d is outside the alphabet), compresses the
// document and concatenates it with itself until it is longer than 4·B,
// so the walk meets both long nodes and blocks, and derives one CDE edit
// of it from the last argument. On both versions Each must emit the
// reference walk's sequence, which must be the naive evaluator's
// relation, and CountTotal must count it.
func FuzzCompressedEnumVsNaive(f *testing.F) {
	f.Add([]byte{3, 7, 10, 0, 1, 13, 3, 7}, []byte("abab"), uint8(0))                      // .*!x{ab}.*
	f.Add([]byte{10, 0, 8, 13, 4, 11, 1, 8, 13, 5, 9, 3, 7}, []byte{0, 0, 1, 1}, uint8(5)) // !x{a+}(!y{b+})?.*
	f.Add([]byte{10, 4, 5, 13, 3, 7}, []byte{}, uint8(2))                                  // !x{()}.*
	f.Add([]byte{3, 7, 12, 2, 13, 3, 7}, []byte{2, 3, 2, 0, 2}, uint8(9))                  // .*!z{c}.* on "cdcac"
	f.Fuzz(func(t *testing.T, pat, text []byte, edit uint8) {
		if len(pat) > 24 || len(text) > 16 {
			return
		}
		src, nfa, d, ok := tokenPattern(pat)
		if !ok {
			return
		}
		doc := make([]byte, len(text))
		for i, b := range text {
			doc[i] = "abcd"[b%4]
		}
		db := slp.NewDB()
		root := slp.Balance(slp.Compress(doc))
		for root != nil && root.Len() <= 4*blockLen {
			root = slp.Concat(root, root)
		}
		db.Add("D", root)
		roots := []*slp.Node{root}
		if n := root.Len(); n > 0 {
			i := 1 + int64(edit)%n
			j := i + int64(edit/4)%(n-i+1)
			expr := []string{
				fmt.Sprintf("copy(D,%d,%d,%d)", i, j, 1+int64(edit/16)%(n+1)),
				fmt.Sprintf("delete(D,%d,%d)", i, j),
				fmt.Sprintf("insert(D,D,%d)", i),
				"concat(D,D)",
			}[edit%4]
			e, err := slp.ParseCDE(expr)
			if err != nil {
				t.Fatal(err)
			}
			edited, err := db.Eval(e)
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			roots = append(roots, edited)
		}
		ix := NewIndex(d)
		for _, r := range roots {
			text := r.Bytes()
			name := fmt.Sprintf("%q on %q", src, text)
			got := checkAgainstReference(t, name, ix, r)
			if want := vset.Eval(nfa, text, vset.Schemaless); !spans.NewRelation(got...).Equal(want) || len(got) != want.Len() {
				t.Fatalf("%s:\ncompressed %v\n     naive %v", name, got, want)
			}
		}
	})
}

// The log patterns of the server benchmark: one rec tuple per line, one
// denied tuple per msg=denied line, one tok tuple per msg=timeout line.
const (
	logAlphabet   = "abcdefghijklmnopqrstuvwxyz0123456789 :=[]>-.\n"
	logLinePrefix = `(.*\n)?\[[0-9][0-9]:[0-9][0-9]\] `
	logLineSuffix = `\n(.*\n?)?`
)

var logQueries = []struct{ name, src string }{
	{"rec", logLinePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=!msg{[a-z ]+}` + logLineSuffix},
	{"denied", logLinePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=denied` + logLineSuffix},
	{"tok", `.*!x{timeout}.*`},
}

func logIndex(tb testing.TB, src string) *Index {
	tb.Helper()
	node, err := regex.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	nfa, err := regex.Compile(node, regex.Options{Alphabet: []byte(logAlphabet)})
	if err != nil {
		tb.Fatal(err)
	}
	return NewIndex(automata.Determinize(nfa))
}

// compressedLog Re-Pair-compresses bases service logs of about
// baseBytes each and returns a balanced CDE concatenation of picks
// random ones of them.
func compressedLog(rng *rand.Rand, bases, baseBytes, picks int) *slp.Node {
	services := []string{"auth", "billing", "gateway", "search"}
	messages := []string{"timeout", "retry", "ok", "cache miss", "denied"}
	db := slp.NewDB()
	for b := 0; b < bases; b++ {
		var sb strings.Builder
		for sb.Len() < baseBytes {
			fmt.Fprintf(&sb, "[%02d:%02d] %s req=r%d msg=%s\n", rng.Intn(24), rng.Intn(60),
				services[rng.Intn(len(services))], rng.Intn(8), messages[rng.Intn(len(messages))])
		}
		db.Add(fmt.Sprintf("b%d", b), slp.Balance(slp.Compress([]byte(sb.String()))))
	}
	var concat func(k int) string
	concat = func(k int) string {
		if k == 1 {
			return fmt.Sprintf("b%d", rng.Intn(bases))
		}
		return "concat(" + concat(k/2) + ", " + concat(k-k/2) + ")"
	}
	e, err := slp.ParseCDE(concat(picks))
	if err != nil {
		panic(err)
	}
	root, err := db.Eval(e)
	if err != nil {
		panic(err)
	}
	return root
}

// BenchmarkCompressedLogEnumerate enumerates the server benchmark's log
// patterns over a 256 KiB CDE concatenation of 16 KiB Re-Pair-compressed
// logs on a warm index, reporting ns per tuple.
func BenchmarkCompressedLogEnumerate(b *testing.B) {
	root := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	for _, q := range logQueries {
		ix := logIndex(b, q.src)
		ix.Warm(root)
		b.Run(q.name, func(b *testing.B) {
			tuples := 0
			for i := 0; i < b.N; i++ {
				ix.Each(root, func(spans.Tuple) bool { tuples++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(tuples, 1)), "ns/tuple")
		})
	}
}

// BenchmarkCompressedLogWarm warms a fresh index of each log pattern on
// the corpus of BenchmarkCompressedLogEnumerate, reporting ns per
// document — comparable whatever share of the nodes gets a table.
func BenchmarkCompressedLogWarm(b *testing.B) {
	root := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	for _, q := range logQueries {
		d := logIndex(b, q.src).DEVA()
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewIndex(d).Warm(root)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
		})
	}
}

// TestTablesOnlyOnLongNodes pins where an Index keeps tables: on the log
// corpus, exactly the distinct nodes longer than blockLen, counted by the
// definition, and at most 30 % of the distinct inner nodes. It logs the
// live bytes the warm index holds per distinct inner node.
func TestTablesOnlyOnLongNodes(t *testing.T) {
	root := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	inner, tabled := innerNodes(root), longNodes(root)
	for _, q := range logQueries {
		ix := logIndex(t, q.src)
		runtime.GC()
		var before, live runtime.MemStats
		runtime.ReadMemStats(&before)
		ix.Warm(root)
		runtime.GC()
		runtime.ReadMemStats(&live)
		if got := ix.CachedNodes(); got != tabled {
			t.Errorf("%s: CachedNodes = %d, want the %d distinct nodes longer than %d bytes", q.name, got, tabled, blockLen)
		}
		if got := ix.CachedNodes(); 10*got > 3*inner {
			t.Errorf("%s: %d cached nodes, want at most 30%% of the %d distinct inner nodes", q.name, got, inner)
		}
		for i := range ix.nodes.shards {
			for n := range ix.nodes.shards[i].m {
				if !long(n) {
					t.Fatalf("%s: a node of %d bytes has a table", q.name, n.Len())
				}
			}
		}
		t.Logf("%s: %d of %d inner nodes tabled, %.0f live bytes per inner node", q.name, ix.CachedNodes(), inner,
			float64(int64(live.HeapAlloc)-int64(before.HeapAlloc))/float64(inner))
		runtime.KeepAlive(ix)
	}
}

// TestWarmAllocsPerNode bounds the heap objects warming allocates per
// inner SLP node of the log corpus: the node's struct and its one slab
// (E, E⁺ and P), plus the table's amortized growth. It logs the live
// bytes per node, the figure §4.2's |Q|²-bit bound is about.
func TestWarmAllocsPerNode(t *testing.T) {
	root := compressedLog(rand.New(rand.NewSource(1)), 8, 16<<10, 16)
	for _, q := range logQueries {
		ix := logIndex(t, q.src)
		runtime.GC()
		var before, warmed, live runtime.MemStats
		runtime.ReadMemStats(&before)
		ix.Warm(root)
		runtime.ReadMemStats(&warmed)
		runtime.GC()
		runtime.ReadMemStats(&live)
		nodes := ix.CachedNodes()
		if nodes == 0 {
			t.Fatalf("%s: Warm cached no nodes", q.name)
		}
		perNode := float64(warmed.Mallocs-before.Mallocs) / float64(nodes)
		t.Logf("%s: %d nodes, %.2f objects and %.0f live bytes per node", q.name, nodes, perNode,
			float64(int64(live.HeapAlloc)-int64(before.HeapAlloc))/float64(nodes))
		if perNode > 2.1 {
			t.Errorf("%s: Warm allocated %.2f heap objects per cached node, want ≤ 2.1", q.name, perNode)
		}
		runtime.KeepAlive(ix)
	}
}
