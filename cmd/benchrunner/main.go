// Command benchrunner regenerates the experiment tables of EXPERIMENTS.md:
// one table per experiment ID (F1, E1–E17), each validating a formal claim
// of Schmid & Schweikardt's PODS 2022 survey on the implementation. Run
// with -experiment to select a single one, e.g.
//
//	benchrunner -experiment E3
//	benchrunner            # all experiments (a few minutes)
//
// Serving, editing, storage and cluster performance are measured by the
// repository's one benchmark, bash bench/run.sh --workload …, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"docspanner"
	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/refl"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

func main() {
	which := flag.String("experiment", "", "run only this experiment (F1, E1..E14, E17); empty = all")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: -memprofile: %v\n", err)
			}
		}()
	}

	experiments := []struct {
		id  string
		run func()
	}{
		{"F1", runF1}, {"E1", runE1}, {"E2", runE2}, {"E3", runE3},
		{"E4", runE4}, {"E5", runE5}, {"E6", runE6}, {"E7", runE7},
		{"E8", runE8}, {"E9", runE9}, {"E10", runE10}, {"E11", runE11},
		{"E12", runE12}, {"E13", runE13}, {"E14", runE14}, {"E17", runE17},
	}
	ran := false
	for _, e := range experiments {
		if *which == "" || strings.EqualFold(*which, e.id) {
			e.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

// ---------- helpers ----------

func compile(pattern, alphabet string) *automata.NFA {
	ast, err := regex.Parse(pattern)
	if err != nil {
		panic(err)
	}
	nfa, err := regex.Compile(ast, regex.Options{Alphabet: []byte(alphabet)})
	if err != nil {
		panic(err)
	}
	return nfa
}

// timeIt runs f repeatedly until ~50ms elapsed (at least once) and returns
// the median-ish per-run time.
func timeIt(f func()) time.Duration {
	f() // warm up
	var total time.Duration
	runs := 0
	for total < 50*time.Millisecond && runs < 1000 {
		start := time.Now()
		f()
		total += time.Since(start)
		runs++
	}
	return total / time.Duration(runs)
}

func randomDoc(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	return doc
}

func header(id, claim string) {
	fmt.Printf("\n== %s: %s ==\n", id, claim)
}

// ---------- experiments ----------

func runF1() {
	header("F1", "Figure 1 SLP represents DDB = {ababbcabca, bcabcaabbca, ababbca}")
	ta, tb, tc := slp.Leaf('a'), slp.Leaf('b'), slp.Leaf('c')
	e := slp.Pair(ta, tb)
	f := slp.Pair(tb, tc)
	c := slp.Pair(f, ta)
	bb := slp.Pair(e, c)
	d := slp.Pair(c, bb)
	a3 := slp.Pair(e, bb)
	a1 := slp.Pair(a3, c)
	a2 := slp.Pair(c, d)
	fmt.Printf("%-6s %-14s %-6s %-4s\n", "node", "document", "order", "bal")
	for _, row := range []struct {
		name string
		n    *slp.Node
	}{{"E", e}, {"F", f}, {"C", c}, {"B", bb}, {"D", d}, {"A3", a3}, {"A1", a1}, {"A2", a2}} {
		fmt.Printf("%-6s %-14s %-6d %-4d\n", row.name, row.n.Bytes(), row.n.Order(), row.n.Bal())
	}
	a4 := slp.Pair(a2, a1)
	g := slp.Pair(d, bb)
	a5 := slp.Pair(bb, g)
	fmt.Printf("grey extension: D4=%s D5=%s\n", a4.Bytes(), a5.Bytes())
	fmt.Printf("paper: ord(E)=ord(F)=2 ord(C)=3 ord(B)=4 ord(D)=ord(A3)=5 ord(A1)=ord(A2)=6; bal(A1)=2 bal(A2)=bal(A3)=-2\n")
}

func runE1() {
	header("E1", "regular enumeration: linear preprocessing, constant delay (survey §2.5)")
	d := automata.Determinize(compile(".*!x{ab}.*", "ab"))
	fmt.Printf("%-10s %-16s %-14s %-10s\n", "n", "preprocess", "ns/byte", "delay/tuple")
	for _, exp := range []int{12, 14, 16, 18} {
		n := 1 << exp
		doc := randomDoc(n, 1)
		pre := timeIt(func() { enum.NewEnumerator(d, doc) })
		e := enum.NewEnumerator(d, doc)
		tuples := 0
		per := timeIt(func() {
			tuples = 0
			e.Each(func(spans.Tuple) bool { tuples++; return true })
		})
		fmt.Printf("2^%-8d %-16v %-14.2f %v\n", exp, pre,
			float64(pre.Nanoseconds())/float64(n), per/time.Duration(tuples))
	}
	fmt.Println("expected: preprocess grows ~16x per two rows (linear); ns/byte and delay flat")
}

func runE2() {
	header("E2", "SLP enumeration: O(|S|) preprocessing, O(log|D|) delay (survey §4)")
	d := automata.Determinize(compile(".*!x{ab}.*", "ab"))
	fmt.Printf("%-10s %-10s %-14s %-12s\n", "n", "slp_nodes", "preprocess", "delay/tuple")
	for _, exp := range []int{12, 16, 20, 24} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		pre := timeIt(func() {
			ix := slpmatch.NewIndex(d)
			ix.Warm(root)
		})
		ix := slpmatch.NewIndex(d)
		ix.Warm(root)
		const take = 2000
		per := timeIt(func() {
			k := 0
			ix.Each(root, func(spans.Tuple) bool { k++; return k < take })
		})
		fmt.Printf("2^%-8d %-10d %-14v %-12v\n", exp, root.Size(), pre, per/take)
	}
	fmt.Println("expected: preprocess tracks slp_nodes (not n); delay grows ~logarithmically")
}

func runE3() {
	header("E3", "compressed NFA membership O(|S|·n³) vs decompress-and-run (survey §4.2)")
	nfa := compile("(ab)*", "ab")
	d := automata.Determinize(nfa)
	fmt.Printf("%-10s %-14s %-14s %-8s\n", "n", "compressed", "decompressed", "speedup")
	for _, exp := range []int{12, 16, 20, 24} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		tc := timeIt(func() {
			m, _ := slpmatch.NewMatcher(nfa)
			m.Accepts(root)
		})
		var td time.Duration
		if exp <= 22 {
			doc := root.Bytes()
			td = timeIt(func() { d.AcceptsExtended(doc, nil) })
		}
		if td > 0 {
			fmt.Printf("2^%-8d %-14v %-14v %.0fx\n", exp, tc, td, float64(td)/float64(tc))
		} else {
			fmt.Printf("2^%-8d %-14v %-14s\n", exp, tc, "(skipped)")
		}
	}
	fmt.Println("expected: compressed flat (SLP is O(log n)); decompressed linear in n")
}

func runE4() {
	header("E4", "ModelChecking: regular linear, refl linear, core NP-hard (survey §2.4, §3.3)")
	reg := compile("!x{(a|b)*}!y{b}!z{(a|b)*}", "ab")
	rnfa := compile("!x{(a|b)*}&x", "ab")
	rs, err := refl.New(rnfa)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-10s %-14s %-14s\n", "n", "regular", "refl")
	for _, exp := range []int{10, 14, 18} {
		n := 1 << exp
		doc := randomDoc(n, 3)
		doc[n/2] = 'b'
		tup := spans.NewTuple("x", spans.S(1, n/2+1), "y", spans.S(n/2+1, n/2+2), "z", spans.S(n/2+2, n+1))
		tr := timeIt(func() { _, _ = vset.ModelCheck(reg, doc, tup, vset.Functional) })
		half := randomDoc(n/2, 4)
		sq := append(append([]byte{}, half...), half...)
		rtup := spans.NewTuple("x", spans.S(1, n/2+1))
		tf := timeIt(func() { _, _ = rs.ModelCheck(sq, rtup, true) })
		fmt.Printf("2^%-8d %-14v %-14v\n", exp, tr, tf)
	}
	fmt.Printf("%-10s %-14s\n", "k", "core-nonempt")
	for _, k := range []int{2, 3, 4} {
		var sb strings.Builder
		vars := make([]spans.Var, k)
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "!v%d{(a|b)*}", i)
			vars[i] = spans.Var(fmt.Sprintf("v%d", i))
		}
		var expr algebra.Expr = algebra.Project{
			Sub:  algebra.SelectEq{Sub: algebra.Prim{A: compile(sb.String(), "ab")}, Z: spans.NewVarSet(vars...)},
			Keep: nil,
		}
		w := randomDoc(6, 5)
		doc := make([]byte, 0, 6*k)
		for i := 0; i < k; i++ {
			doc = append(doc, w...)
		}
		t := timeIt(func() { expr.Eval(doc, vset.Functional) })
		fmt.Printf("%-10d %-14v\n", k, t)
	}
	fmt.Println("expected: regular/refl scale linearly in n; core grows exponentially in k")
}

func runE5() {
	header("E5", "NonEmptiness: regular poly, refl NP-hard (survey §2.4, §3.3)")
	reg := compile("!x{(a|b)*}!y{b}!z{(a|b)*}", "ab")
	rnfa := compile("!x{(a|b)*}&x", "ab")
	rs, err := refl.New(rnfa)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-10s %-14s %-14s\n", "n", "regular", "refl(square)")
	for _, n := range []int{256, 1024, 4096} {
		doc := randomDoc(n, 6)
		tr := timeIt(func() { vset.NonEmpty(reg, doc) })
		half := randomDoc(n/2, 8)
		sq := append(append([]byte{}, half...), half...)
		tf := timeIt(func() { rs.NonEmpty(sq) })
		fmt.Printf("%-10d %-14v %-14v\n", n, tr, tf)
	}
	fmt.Println("expected: regular linear; refl superlinear (configuration guessing)")
}

func runE6() {
	header("E6", "Satisfiability: regular & refl poly; core embeds intersection-nonemptiness (survey §2.4, §3.3)")
	fmt.Printf("%-10s %-14s %-14s\n", "k", "regular", "refl")
	for _, k := range []int{4, 8, 16} {
		big := compile(strings.Repeat("(a|b)*", k)+"!x{a}", "ab")
		tr := timeIt(func() { vset.Satisfiable(big) })
		rf := compile(fmt.Sprintf("!x{(a|b){%d}}&x&x", k), "ab")
		rsp, err := refl.New(rf)
		if err != nil {
			panic(err)
		}
		tf := timeIt(func() { rsp.Satisfiable() })
		fmt.Printf("%-10d %-14v %-14v\n", k, tr, tf)
	}
	fmt.Printf("%-10s %-14s %-12s\n", "k", "intersection", "product-size")
	primes := []int{2, 3, 5, 7, 11}
	for _, k := range []int{2, 3, 4, 5} {
		var states int
		t := timeIt(func() {
			cur := cycleNFA(primes[0])
			for j := 1; j < k; j++ {
				cur = automata.IntersectLanguages(cur, cycleNFA(primes[j]))
			}
			states = cur.NumStates()
		})
		fmt.Printf("%-10d %-14v %-12d\n", k, t, states)
	}
	fmt.Println("expected: regular/refl flat; intersection grows with the product of the periods")
}

func cycleNFA(p int) *automata.NFA {
	n := automata.NewNFA(nil)
	cur := n.Start
	for i := 1; i < p; i++ {
		next := n.AddState()
		n.AddLetter(cur, 'a', next)
		cur = next
	}
	n.AddLetter(cur, 'a', n.Start)
	n.SetFinal(n.Start)
	return n
}

func runE7() {
	header("E7", "CDE updates in O(|φ|·log d) vs rebuild (survey §4.3)")
	fmt.Printf("%-10s %-14s %-14s %-10s\n", "n", "cde-update", "rebuild", "balanced")
	for _, exp := range []int{12, 16, 20, 24} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("abcd")), n/4)
		db := slp.NewDB()
		db.Add("D", root)
		expr, err := slp.ParseCDE(fmt.Sprintf("insert(delete(D,%d,%d), extract(D,1,64), %d)", n/4, n/4+999, n/2))
		if err != nil {
			panic(err)
		}
		var res *slp.Node
		tu := timeIt(func() { res, _ = db.Eval(expr) })
		var tb time.Duration
		if exp <= 20 {
			tb = timeIt(func() {
				plain := root.Bytes()
				edited := append(append(append([]byte{}, plain[:n/4]...), plain[:64]...), plain[n/4+1000:]...)
				slp.Balance(slp.Compress(edited))
			})
		}
		if tb > 0 {
			fmt.Printf("2^%-8d %-14v %-14v %v\n", exp, tu, tb, res.StronglyBalanced())
		} else {
			fmt.Printf("2^%-8d %-14v %-14s %v\n", exp, tu, "(skipped)", res.StronglyBalanced())
		}
	}
	fmt.Println("expected: cde-update ~flat (logarithmic); rebuild linear; balance preserved")
}

func runE8() {
	header("E8", "Balance: strongly balanced in O(|S|·log n); implies 2-shallow (survey §4.1)")
	fmt.Printf("%-10s %-10s %-12s %-14s %-10s %-10s\n", "n", "|S| in", "|S| out", "time", "balanced", "2-shallow")
	for _, exp := range []int{10, 14, 18, 20} {
		n := 1 << exp
		doc := []byte(strings.Repeat("abracadabra", n/11+1))[:n]
		grammar := slp.Compress(doc)
		var bal *slp.Node
		t := timeIt(func() { bal = slp.Balance(grammar) })
		fmt.Printf("2^%-8d %-10d %-12d %-14v %-10v %-10v\n",
			exp, grammar.Size(), bal.Size(), t, bal.StronglyBalanced(), bal.CShallow(2))
	}
}

func runE9() {
	header("E9", "core-simplification lemma: π∘ς*∘regular normal form agrees with reference eval (survey §2.3)")
	p1 := algebra.Prim{A: compile(".*!x{a+}!y{b+}.*", "ab")}
	p2 := algebra.Prim{A: compile(".*!y{bb}.*", "ab")}
	p3 := algebra.Prim{A: compile("!x{a}!y{bb}.*", "ab")}
	expr := algebra.Project{
		Sub: algebra.SelectEq{
			Sub: algebra.Union{L: algebra.Join{L: p1, R: p2}, R: p3},
			Z:   spans.NewVarSet("y"),
		},
		Keep: spans.NewVarSet("x", "y"),
	}
	cf, err := algebra.Simplify(expr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("normal form: %d automaton states, %d selections, visible %v\n",
		cf.Automaton.NumStates(), len(cf.Selections), cf.Visible)
	agree := 0
	docs := 0
	for _, doc := range []string{"", "ab", "aabb", "abbab", "aabbbab", "bbaabb"} {
		docs++
		if cf.Eval([]byte(doc), vset.Functional).Equal(expr.Eval([]byte(doc), vset.Functional)) {
			agree++
		}
	}
	fmt.Printf("agreement on %d/%d documents\n", agree, docs)
	fmt.Printf("simplify time: %v\n", timeIt(func() { _, _ = algebra.Simplify(expr) }))
}

func runE10() {
	header("E10", "core spanners express word-equation relations ~com (xy=yx) and ~cyc (xz=zy) (survey §2.4)")
	com := algebra.Commuting("x", "y", []byte("ab"))
	cyc := algebra.CyclicShift("x", "y", []byte("ab"))
	fmt.Printf("%-16s %-10s %-10s %-10s\n", "doc", "com-pairs", "cyc-pairs", "verified")
	for _, doc := range []string{"abab", "aabaa", "ababa", "abba"} {
		d := []byte(doc)
		rc := com.Eval(d, vset.Functional)
		ry := cyc.Eval(d, vset.Functional)
		okC := rc.Equal(bruteCommuting(d))
		okY := ry.Equal(bruteCyclic(d))
		fmt.Printf("%-16q %-10d %-10d %v\n", doc, rc.Len(), ry.Len(), okC && okY)
	}
}

func bruteCommuting(doc []byte) *spans.Relation {
	out := spans.NewRelation()
	n := len(doc)
	for b1 := 1; b1 <= n+1; b1++ {
		for e1 := b1; e1 <= n+1; e1++ {
			for b2 := 1; b2 <= n+1; b2++ {
				for e2 := b2; e2 <= n+1; e2++ {
					if !(e1 <= b2 || e2 <= b1) {
						continue
					}
					u := string(doc[b1-1 : e1-1])
					v := string(doc[b2-1 : e2-1])
					if u+v == v+u {
						out.Add(spans.NewTuple("x", spans.S(b1, e1), "y", spans.S(b2, e2)))
					}
				}
			}
		}
	}
	return out
}

func bruteCyclic(doc []byte) *spans.Relation {
	out := spans.NewRelation()
	n := len(doc)
	cyc := func(u, v string) bool {
		if len(u) != len(v) {
			return false
		}
		return strings.Contains(u+u, v)
	}
	for b1 := 1; b1 <= n+1; b1++ {
		for e1 := b1; e1 <= n+1; e1++ {
			for b2 := 1; b2 <= n+1; b2++ {
				for e2 := b2; e2 <= n+1; e2++ {
					if !(e1 <= b2 || e2 <= b1) {
						continue
					}
					if cyc(string(doc[b1-1:e1-1]), string(doc[b2-1:e2-1])) {
						out.Add(spans.NewTuple("x", spans.S(b1, e1), "y", spans.S(b2, e2)))
					}
				}
			}
		}
	}
	return out
}

func runE11() {
	header("E11", "refl ↔ core translations (survey §3.2)")
	rnfa := compile("!x{(a|b)*}c!y{&x}", "abc")
	rs, err := refl.New(rnfa)
	if err != nil {
		panic(err)
	}
	core, err := rs.ToCore()
	if err != nil {
		panic(err)
	}
	agree := 0
	docs := []string{"c", "acb", "abcab", "bacba", "aacaa"}
	for _, doc := range docs {
		if rs.Eval([]byte(doc), false).Equal(core.Eval([]byte(doc), vset.Schemaless)) {
			agree++
		}
	}
	fmt.Printf("refl→core: agreement on %d/%d documents\n", agree, len(docs))

	unb := compile("a+!x{b+}(a+&x)*a+", "ab")
	us, err := refl.New(unb)
	if err != nil {
		panic(err)
	}
	_, err = us.ToCore()
	fmt.Printf("unbounded example a⁺!x{b⁺}(a⁺&x)*a⁺ rejected: %v\n", err != nil)

	ast, _ := regex.Parse("ab*!x{a(a|b)*}(b|c)*!y{(a|b)*b}b*")
	fr, err := refl.FromRegexCore(ast, []spans.VarSet{spans.NewVarSet("x", "y")}, []byte("abc"))
	if err != nil {
		panic(err)
	}
	sel := algebra.SelectEq{
		Sub: algebra.Prim{A: compile("ab*!x{a(a|b)*}(b|c)*!y{(a|b)*b}b*", "abc")},
		Z:   spans.NewVarSet("x", "y"),
	}
	agree = 0
	docs = []string{"aabcab", "aabbab", "abacab", "aabab"}
	for _, doc := range docs {
		if fr.Eval([]byte(doc), true).Equal(sel.Eval([]byte(doc), vset.Functional)) {
			agree++
		}
	}
	fmt.Printf("core→refl (β/β' with γ-intersection): agreement on %d/%d documents\n", agree, len(docs))
}

func runE12() {
	header("E12", "Containment/Equivalence decidable for regular spanners (survey §2.4)")
	fmt.Printf("%-10s %-14s %-10s\n", "k", "equivalence", "answer")
	for _, k := range []int{2, 4, 8} {
		p1 := strings.Repeat("(a|b)", k) + "!x{a+}"
		p2 := strings.Repeat("(b|a)", k) + "!x{aa*}"
		n1 := compile(p1, "ab")
		n2 := compile(p2, "ab")
		var ans bool
		t := timeIt(func() { ans = vset.Equivalent(n1, n2) })
		fmt.Printf("%-10d %-14v %-10v\n", k, t, ans)
	}
	a := compile("!x{a}", "ab")
	b := compile("!x{a|b}", "ab")
	fmt.Printf("strict containment detected: %v (and not reverse: %v)\n",
		vset.Contains(a, b), !vset.Contains(b, a))
	fmt.Println("note: core-spanner equivalence is undecidable (survey §2.4); only bounded refutation is offered")
}

func runE13() {
	header("E13", "exact answer counting without enumeration (quadratic outputs in poly time)")
	d := automata.Determinize(compile(".*!x{(a|b)+}.*", "ab"))
	fmt.Printf("%-10s %-14s %-30s\n", "n", "time", "count")
	for _, exp := range []int{10, 14, 18} {
		doc := randomDoc(1<<exp, 21)
		var c string
		t := timeIt(func() { c = enum.FastCount(d, doc).String() })
		fmt.Printf("2^%-8d %-14v %-30s\n", exp, t, c)
	}
	fmt.Printf("%-10s %-14s %-30s\n", "n (SLP)", "time", "count (exact, big.Int)")
	for _, exp := range []int{20, 40, 60} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		var c string
		t := timeIt(func() {
			cc := slpmatch.NewCounter(d)
			c = cc.Count(root).String()
		})
		if len(c) > 28 {
			c = c[:25] + "..."
		}
		fmt.Printf("2^%-8d %-14v %-30s\n", exp, t, c)
	}
	fmt.Println("expected: plain DP linear in n; compressed counter linear in |S| = O(log n),")
	fmt.Println("delivering counts with dozens of digits that enumeration could never reach")
}

func runE14() {
	header("E14", "parallel evaluation: batch worker pool and split-correct sharding (Doleschal et al., PODS 2019)")
	fmt.Printf("GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	ctx := context.Background()

	s := docspanner.MustCompile(".*!x{ab}.*", docspanner.Options{Alphabet: []byte("ab")})
	docs := make([][]byte, 16)
	for i := range docs {
		docs[i] = randomDoc(1<<12, int64(40+i))
	}
	s.Eval(docs[0]) // warm the lazy determinization once for all variants
	fmt.Printf("%-26s %-14s\n", "batch of 16×4KiB docs", "time/batch")
	fmt.Printf("%-26s %-14v\n", "serial loop", timeIt(func() {
		for _, d := range docs {
			s.Eval(d)
		}
	}))
	for _, w := range []int{1, 2, 4} {
		t := timeIt(func() {
			if _, err := docspanner.EvalDocs(ctx, s, docs, docspanner.ParallelOptions{Workers: w}); err != nil {
				panic(err)
			}
		})
		fmt.Printf("EvalDocs workers=%-9d %-14v\n", w, t)
	}

	opts := docspanner.Options{Alphabet: []byte("ab;")}
	p := docspanner.MustCompile(".*!x{aa}.*", opts)
	splitter := docspanner.MustCompile("(.*;)?!s{[ab]*}(;.*)?", opts)
	var correct bool
	tv := timeIt(func() {
		var err error
		correct, _, err = docspanner.CheckSplitCorrect(p, splitter, "s", nil, 4)
		if err != nil {
			panic(err)
		}
	})
	fmt.Printf("\nsplit-correctness check (document-independent, once): %v in %v\n", correct, tv)
	fmt.Printf("%-26s %-14s %-14s\n", "segments", "serial Eval", "EvalSharded w=4")
	for _, segs := range []int{64, 512} {
		doc := []byte(strings.Repeat("abaab;", segs))
		doc = doc[:len(doc)-1]
		ts := timeIt(func() { p.Eval(doc) })
		tp := timeIt(func() {
			if _, err := docspanner.EvalSharded(ctx, p, splitter, "s", doc, docspanner.ShardOptions{Workers: 4}); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-26d %-14v %-14v\n", segs, ts, tp)
	}
	fmt.Println("expected: identical relations in every variant; with k cores the parallel")
	fmt.Println("variants approach 1/k of serial; with GOMAXPROCS=1 they expose only the")
	fmt.Println("pool and per-shard preprocessing overhead")
}

// E17 measures each query twice on the same document — once with the
// planner disabled (DisableRewrites + NaiveBackend, the classical
// bottom-up evaluation) and once with the full rewrite pipeline and
// automatic backend selection. The suite is deliberately join- and
// selection-heavy: those are the shapes where the rewrites change the
// asymptotics rather than the constants.
func runE17() {
	header("E17", "query planner: rewrites + backend selection vs naive bottom-up evaluation")
	planQ := func(pattern string) *docspanner.Query {
		return docspanner.MustQ(docspanner.MustCompile(pattern, docspanner.Options{Alphabet: []byte("ab")}))
	}
	eval := func(q *docspanner.Query, doc []byte) { q.Eval(doc) }
	suite := []struct {
		id    string
		query *docspanner.Query
		doc   []byte
		op    func(q *docspanner.Query, doc []byte)
	}{
		// Duplicate union branches: SP008 dedup collapses the union to one
		// branch, which runs constant-delay instead of two naive scans.
		{"E17/dedup-union/n=2^10", planQ(".*!x{a+}.*").Union(planQ(".*!x{aa*}.*")), randomDoc(1<<10, 41), eval},
		// Provably empty join (x must be "ab" and "ba" at the same span):
		// the SP003 lint prune rewrites the whole plan to ∅.
		{"E17/dead-join/n=2^10", planQ(".*!x{ab}.*").Join(planQ(".*!x{ba}.*")), randomDoc(1<<10, 42), eval},
		// Projection pushdown drops j below the join, which then fuses to
		// one scan instead of building the {x, j} × {x} intermediate.
		{"E17/proj-pushdown-join/n=2^9", planQ(".*!x{ab}.*!j{a}.*").Join(planQ(".*!x{ab}.*")).Project("x"), randomDoc(1<<9, 43), eval},
		// The selection survives every rewrite, but its input scan switches
		// from the naive automaton search to constant-delay enumeration.
		{"E17/selection-scan/n=2^9", planQ(".*b!x{a+}b.*b!y{a+}b.*").SelectEqual("x", "y"), randomDoc(1<<9, 44), eval},
		// Planner-on counts a fused union without materializing anything.
		{"E17/count-fused-union/n=2^10", planQ(".*!x{ab}.*").Union(planQ("a*!x{ba}(a|b)*")), randomDoc(1<<10, 45),
			func(q *docspanner.Query, doc []byte) { q.Count(doc) }},
	}
	fmt.Printf("%-28s %14s %14s %9s\n", "query", "planner-off", "planner-on", "speedup")
	for _, it := range suite {
		off := it.query.WithPlan(docspanner.PlanOptions{DisableRewrites: true, NaiveBackend: true})
		on := it.query.WithPlan(docspanner.PlanOptions{})
		offNs := float64(timeIt(func() { it.op(off, it.doc) }).Nanoseconds())
		onNs := float64(timeIt(func() { it.op(on, it.doc) }).Nanoseconds())
		fmt.Printf("%-28s %12.0fns %12.0fns %8.1fx\n", it.id, offNs, onNs, offNs/onNs)
	}
	fmt.Println("expected: every row ≥ 1x; the join-heavy rows (dead-join, proj-pushdown)")
	fmt.Println("change asymptotics and should exceed 2x by a wide margin")
}
