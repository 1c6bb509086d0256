// Benchmarks regenerating the experiments of EXPERIMENTS.md — one
// benchmark (family) per experiment ID. The survey being reproduced has
// no empirical tables, so each experiment measures one of its complexity
// claims; the shapes (linear/constant/logarithmic scaling, tractable vs
// intractable) are the results to compare.
package docspanner

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/refl"
	"docspanner/internal/refwords"
	"docspanner/internal/regex"
	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

// ---------- workload generators ----------

// randomDoc is an incompressible-ish document over {a,b}.
func randomDoc(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = "ab"[rng.Intn(2)]
	}
	return doc
}

// periodicDoc is (ab)^{n/2}: maximally compressible.
func periodicDoc(n int) []byte {
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = "ab"[i%2]
	}
	return doc
}

func compileBench(b *testing.B, pattern, alphabet string) *automata.NFA {
	b.Helper()
	ast, err := regex.Parse(pattern)
	if err != nil {
		b.Fatal(err)
	}
	nfa, err := regex.Compile(ast, regex.Options{Alphabet: []byte(alphabet)})
	if err != nil {
		b.Fatal(err)
	}
	return nfa
}

// ---------- F1: Figure 1 ----------

// BenchmarkF1Figure1SLP reconstructs the survey's Figure 1 SLP (including
// the grey CDE extension) and verifies the represented document database.
func BenchmarkF1Figure1SLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ta, tb, tc := slp.Leaf('a'), slp.Leaf('b'), slp.Leaf('c')
		e := slp.Pair(ta, tb)
		f := slp.Pair(tb, tc)
		c := slp.Pair(f, ta)
		bb := slp.Pair(e, c)
		d := slp.Pair(c, bb)
		a3 := slp.Pair(e, bb)
		a1 := slp.Pair(a3, c)
		a2 := slp.Pair(c, d)
		a4 := slp.Pair(a2, a1)
		g := slp.Pair(d, bb)
		a5 := slp.Pair(bb, g)
		if a1.Len() != 10 || a2.Len() != 11 || a3.Len() != 7 || a4.Len() != 21 || a5.Len() != 18 {
			b.Fatal("Figure 1 documents wrong")
		}
	}
}

// ---------- E1: enumeration, linear preprocessing + constant delay ----------

var e1Pattern = ".*!x{ab}.*"

func BenchmarkE1EnumPreprocessing(b *testing.B) {
	d := automata.Determinize(compileBench(b, e1Pattern, "ab"))
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		doc := randomDoc(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enum.NewEnumerator(d, doc)
			}
			b.ReportMetric(float64(n), "doc_bytes")
		})
	}
}

func BenchmarkE1EnumDelay(b *testing.B) {
	d := automata.Determinize(compileBench(b, e1Pattern, "ab"))
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 18} {
		doc := randomDoc(n, 1)
		e := enum.NewEnumerator(d, doc)
		total := e.Count()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			emitted := 0
			for i := 0; i < b.N; i++ {
				e.Each(func(spans.Tuple) bool { emitted++; return true })
			}
			// Report time per tuple: the "delay" — must not grow with n.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/tuple")
			b.ReportMetric(float64(total), "tuples")
		})
	}
}

// ---------- E2: compressed enumeration ----------

func BenchmarkE2CompressedEnumPreprocess(b *testing.B) {
	// Small (7-state) and large (≥ 64-state, multi-word matrix rows)
	// automata: the large one exposes kernel regressions the small one
	// hides.
	for _, pat := range []string{e1Pattern, ".*a(a|b)(a|b)(a|b)(a|b)(a|b)!x{ab}.*"} {
		d := automata.Determinize(compileBench(b, pat, "ab"))
		for _, exp := range []int{12, 16, 20, 22} {
			n := int64(1) << exp
			root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
			b.Run(fmt.Sprintf("repetitive/states=%d/n=2^%d", d.NumStates(), exp), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ix := slpmatch.NewIndex(d)
					ix.Warm(root)
				}
				b.ReportMetric(float64(root.Size()), "slp_nodes")
			})
		}
	}
}

func BenchmarkE2CompressedEnumDelay(b *testing.B) {
	d := automata.Determinize(compileBench(b, e1Pattern, "ab"))
	for _, exp := range []int{12, 16, 20, 24} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		ix := slpmatch.NewIndex(d)
		ix.Warm(root)
		b.Run(fmt.Sprintf("n=2^%d", exp), func(b *testing.B) {
			emitted := 0
			const take = 2000
			for i := 0; i < b.N; i++ {
				k := 0
				ix.Each(root, func(spans.Tuple) bool {
					k++
					emitted++
					return k < take
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/tuple")
		})
	}
}

// ---------- E3: compressed membership vs decompress-and-run ----------

// E3 decides membership by NonEmpty on an Index over the DEVA of a
// variable-free pattern: the index's per-node matrices are Section 4.2's,
// so states counts DEVA states. The second pattern has more than 64, so
// every matrix row spans several words.
func BenchmarkE3CompressedMembership(b *testing.B) {
	for _, pat := range []string{"(ab)*", strings.Repeat("(a|b)", 32) + "(ab)*"} {
		d := automata.Determinize(compileBench(b, pat, "ab"))
		for _, exp := range []int{12, 16, 20, 22} {
			n := int64(1) << exp
			root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
			b.Run(fmt.Sprintf("compressed/states=%d/n=2^%d", d.NumStates(), exp), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !slpmatch.NewIndex(d).NonEmpty(root) {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
	d := automata.Determinize(compileBench(b, "(ab)*", "ab"))
	for _, exp := range []int{12, 16, 20, 22} {
		n := 1 << exp
		doc := periodicDoc(n)
		b.Run(fmt.Sprintf("decompressed/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !d.AcceptsExtended(doc, nil) {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// ---------- E4: ModelChecking across the three classes ----------

func BenchmarkE4ModelCheckRegular(b *testing.B) {
	nfa := compileBench(b, "!x{(a|b)*}!y{b}!z{(a|b)*}", "ab")
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		doc := randomDoc(n, 3)
		doc[n/2] = 'b'
		tup := spans.NewTuple("x", spans.S(1, n/2+1), "y", spans.S(n/2+1, n/2+2), "z", spans.S(n/2+2, n+1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := vset.ModelCheck(nfa, doc, tup, vset.Functional)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

func BenchmarkE4ModelCheckRefl(b *testing.B) {
	nfa := compileBench(b, "!x{(a|b)*}&x", "ab")
	rs, err := refl.New(nfa)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		half := randomDoc(n/2, 4)
		doc := append(append([]byte{}, half...), half...)
		tup := spans.NewTuple("x", spans.S(1, n/2+1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := rs.ModelCheck(doc, tup, true)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// BenchmarkE4CoreNonEmptinessHard shows the NP-hard side: deciding
// whether the empty tuple is in π∅(ς=...(⟦α⟧)) embeds pattern matching
// with variables; the search grows exponentially with the variable count.
func BenchmarkE4CoreNonEmptinessHard(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		var sb strings.Builder
		vars := make([]spans.Var, k)
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "!v%d{(a|b)*}", i)
			vars[i] = spans.Var(fmt.Sprintf("v%d", i))
		}
		nfa := compileBench(b, sb.String(), "ab")
		var expr algebra.Expr = algebra.Prim{A: nfa}
		expr = algebra.SelectEq{Sub: expr, Z: spans.NewVarSet(vars...)}
		expr = algebra.Project{Sub: expr, Keep: nil}
		doc := bytesRepeat(randomDoc(6, 5), k) // w^k: satisfiable split exists
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if expr.Eval(doc, vset.Functional).Len() == 0 {
					b.Fatal("expected non-empty")
				}
			}
		})
	}
}

func bytesRepeat(w []byte, k int) []byte {
	out := make([]byte, 0, len(w)*k)
	for i := 0; i < k; i++ {
		out = append(out, w...)
	}
	return out
}

// ---------- E5: NonEmptiness ----------

func BenchmarkE5NonEmptinessRegular(b *testing.B) {
	nfa := compileBench(b, "!x{(a|b)*}!y{b}!z{(a|b)*}", "ab")
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		doc := randomDoc(n, 6)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vset.NonEmpty(nfa, doc)
			}
		})
	}
}

func BenchmarkE5NonEmptinessRefl(b *testing.B) {
	// Square recognition (the copy language ww) on growing documents:
	// NP-hard in general; the configuration space grows quadratically
	// here and exponentially with more variables.
	nfa := compileBench(b, "!x{(a|b)*}&x", "ab")
	rs, err := refl.New(nfa)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 256, 1024} {
		half := randomDoc(n/2, 8)
		doc := append(append([]byte{}, half...), half...)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !rs.NonEmpty(doc) {
					b.Fatal("square not found")
				}
			}
		})
	}
}

// ---------- E6: Satisfiability ----------

func BenchmarkE6SatisfiabilityRegular(b *testing.B) {
	nfa := compileBench(b, strings.Repeat("(a|b)*!q{a}", 1), "ab")
	_ = nfa
	for _, k := range []int{4, 8, 16} {
		pattern := strings.Repeat("(a|b)*", k) + "!x{a}"
		big := compileBench(b, pattern, "ab")
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !vset.Satisfiable(big) {
					b.Fatal("unsat")
				}
			}
		})
	}
}

func BenchmarkE6SatisfiabilityRefl(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		pattern := fmt.Sprintf("!x{(a|b){%d}}&x&x", k)
		nfa := compileBench(b, pattern, "ab")
		rs, err := refl.New(nfa)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !rs.Satisfiable() {
					b.Fatal("unsat")
				}
			}
		})
	}
}

// BenchmarkE6CoreIntersectionEmbedding measures the PSpace phenomenon
// behind core-spanner satisfiability: the intersection-non-emptiness of k
// languages (a^p_i)* with pairwise coprime periods p_i; the intersection
// automaton grows as the product of the periods.
func BenchmarkE6CoreIntersectionEmbedding(b *testing.B) {
	primes := []int{2, 3, 5, 7, 11}
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := cycleNFA(primes[0])
				for j := 1; j < k; j++ {
					cur = automata.IntersectLanguages(cur, cycleNFA(primes[j]))
				}
				if cur.Trim().Empty() {
					b.Fatal("intersection empty")
				}
			}
		})
	}
}

// cycleNFA accepts (a^p)*.
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

// ---------- E7: CDE updates ----------

func BenchmarkE7CDEUpdate(b *testing.B) {
	for _, exp := range []int{12, 16, 20, 22} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("abcd")), n/4)
		db := slp.NewDB()
		db.Add("D", root)
		expr, err := slp.ParseCDE(fmt.Sprintf("insert(delete(D,%d,%d), extract(D,1,64), %d)", n/4, n/4+999, n/2))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Eval(expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7RebuildBaseline is the alternative the paper argues against:
// decompress, edit the plain bytes, recompress. Linear in |D|.
func BenchmarkE7RebuildBaseline(b *testing.B) {
	for _, exp := range []int{12, 16, 20} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("abcd")), n/4)
		b.Run(fmt.Sprintf("n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plain := root.Bytes()
				edited := append(append(append([]byte{}, plain[:n/4]...), plain[:64]...), plain[n/4+1000:]...)
				slp.Balance(slp.Compress(edited))
			}
		})
	}
}

// ---------- E8: Balance ----------

func BenchmarkE8Balance(b *testing.B) {
	for _, exp := range []int{10, 14, 18} {
		n := 1 << exp
		doc := []byte(strings.Repeat("abracadabra", n/11+1))[:n]
		grammar := slp.Compress(doc)
		b.Run(fmt.Sprintf("n=2^%d(size=%d)", exp, grammar.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bal := slp.Balance(grammar)
				if !bal.StronglyBalanced() {
					b.Fatal("not balanced")
				}
			}
		})
	}
}

// ---------- E9: core-simplification ----------

func BenchmarkE9CoreSimplification(b *testing.B) {
	build := func() algebra.Expr {
		p1 := algebra.Prim{A: compileBench(b, ".*!x{a+}!y{b+}.*", "ab")}
		p2 := algebra.Prim{A: compileBench(b, ".*!y{bb}.*", "ab")}
		p3 := algebra.Prim{A: compileBench(b, "!x{a}!y{bb}.*", "ab")}
		return algebra.Project{
			Sub: algebra.SelectEq{
				Sub: algebra.Union{L: algebra.Join{L: p1, R: p2}, R: p3},
				Z:   spans.NewVarSet("y"),
			},
			Keep: spans.NewVarSet("x", "y"),
		}
	}
	expr := build()
	doc := []byte("aabbbab")
	b.Run("simplify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Simplify(expr); err != nil {
				b.Fatal(err)
			}
		}
	})
	cf, err := algebra.Simplify(expr)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("eval-normal-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cf.Eval(doc, vset.Functional)
		}
	})
	b.Run("eval-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expr.Eval(doc, vset.Functional)
		}
	})
}

// ---------- E10: word equations ----------

func BenchmarkE10WordEquations(b *testing.B) {
	com := algebra.Commuting("x", "y", []byte("ab"))
	cyc := algebra.CyclicShift("x", "y", []byte("ab"))
	for _, n := range []int{4, 6, 8} {
		doc := []byte(strings.Repeat("ab", n/2))
		b.Run(fmt.Sprintf("commuting/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				com.Eval(doc, vset.Functional)
			}
		})
		b.Run(fmt.Sprintf("cyclic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cyc.Eval(doc, vset.Functional)
			}
		})
	}
}

// ---------- E11: refl ↔ core translations ----------

func BenchmarkE11ReflTranslation(b *testing.B) {
	nfa := compileBench(b, "!x{(a|b)*}c!y{&x}", "abc")
	rs, err := refl.New(nfa)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("refl-to-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rs.ToCore(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ast, err := regex.Parse("ab*!x{a(a|b)*}(b|c)*!y{(a|b)*b}b*")
	if err != nil {
		b.Fatal(err)
	}
	sels := []spans.VarSet{spans.NewVarSet("x", "y")}
	b.Run("core-to-refl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := refl.FromRegexCore(ast, sels, []byte("abc")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E12: containment / equivalence ----------

func BenchmarkE12Equivalence(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		p1 := strings.Repeat("(a|b)", k) + "!x{a+}"
		p2 := strings.Repeat("(b|a)", k) + "!x{aa*}"
		n1 := compileBench(b, p1, "ab")
		n2 := compileBench(b, p2, "ab")
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !vset.Equivalent(n1, n2) {
					b.Fatal("expected equivalent")
				}
			}
		})
	}
}

// ---------- ablations ----------

// BenchmarkAblationEnumVsNaive compares the jump-pointer enumerator with
// the naive configuration search (vset.Eval, sub-benchmark naive-bfs) on
// the same spanner and document. The naive search
// carries partial assignments through every position (quadratic and
// worse), so it only gets a small document.
func BenchmarkAblationEnumVsNaive(b *testing.B) {
	nfa := compileBench(b, ".*!x{ab}.*", "ab")
	d := automata.Determinize(nfa)
	small := periodicDoc(1 << 9)
	b.Run("enumerator/n=2^9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := enum.NewEnumerator(d, small)
			e.Count()
		}
	})
	b.Run("naive-bfs/n=2^9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vset.Eval(nfa, small, vset.Schemaless)
		}
	})
	big := periodicDoc(1 << 14)
	b.Run("enumerator/n=2^14", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := enum.NewEnumerator(d, big)
			e.Count()
		}
	})
}

// BenchmarkAblationReflHashVsNaive compares O(1) hashed factor equality
// with byte-by-byte comparison inside refl evaluation, on a workload
// where reference comparisons dominate: the anchored square test !x{a+}&x
// on a^n probes Θ(n) candidate lengths, each with a comparison of up to
// n/2 bytes that never mismatches early — Θ(n²) compared bytes naively,
// Θ(n) hashed.
func BenchmarkAblationReflHashVsNaive(b *testing.B) {
	nfa := compileBench(b, "!x{a+}&x", "ab")
	rs, err := refl.New(nfa)
	if err != nil {
		b.Fatal(err)
	}
	doc := []byte(strings.Repeat("a", 1<<17))
	b.Run("hashed", func(b *testing.B) {
		rs.NaiveCompare = false
		for i := 0; i < b.N; i++ {
			if rs.Eval(doc, true).Len() == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		rs.NaiveCompare = true
		for i := 0; i < b.N; i++ {
			if rs.Eval(doc, true).Len() == 0 {
				b.Fatal("no matches")
			}
		}
		rs.NaiveCompare = false
	})
}

// BenchmarkAblationFactorEq isolates the string data structure itself:
// O(1) hashed factor-equality queries against O(l) byte comparison, on
// queries that never mismatch early.
func BenchmarkAblationFactorEq(b *testing.B) {
	doc := []byte(strings.Repeat("a", 1<<20))
	h := refl.NewHasher(doc)
	for _, l := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("hashed/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !h.Eq(0, 17, l) {
					b.Fatal("unequal")
				}
			}
		})
		b.Run(fmt.Sprintf("naive/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if string(doc[0:l]) != string(doc[17:17+l]) {
					b.Fatal("unequal")
				}
			}
		})
	}
}

// BenchmarkAblationCompressedVsPlain pits compressed enumeration against
// plain enumeration across compressibility regimes: on repetitive data
// the compressed pipeline's preprocessing wins asymptotically; on random
// data the plain pipeline is better — the crossover the survey predicts.
func BenchmarkAblationCompressedVsPlain(b *testing.B) {
	d := automata.Determinize(compileBench(b, ".*!x{ab}.*", "ab"))
	for _, exp := range []int{14, 18} {
		n := 1 << exp
		rep := slp.Repeat(slp.FromBytes([]byte("ab")), int64(n/2))
		rnd := randomDoc(n, 13)
		rndSLP := slp.Balance(slp.Compress(rnd))
		b.Run(fmt.Sprintf("repetitive-compressed/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := slpmatch.NewIndex(d)
				ix.Warm(rep)
				k := 0
				ix.Each(rep, func(spans.Tuple) bool { k++; return k < 100 })
			}
		})
		b.Run(fmt.Sprintf("repetitive-plain/n=2^%d", exp), func(b *testing.B) {
			doc := periodicDoc(n)
			for i := 0; i < b.N; i++ {
				e := enum.NewEnumerator(d, doc)
				k := 0
				e.Each(func(spans.Tuple) bool { k++; return k < 100 })
			}
		})
		b.Run(fmt.Sprintf("random-compressed/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := slpmatch.NewIndex(d)
				ix.Warm(rndSLP)
				k := 0
				ix.Each(rndSLP, func(spans.Tuple) bool { k++; return k < 100 })
			}
		})
		b.Run(fmt.Sprintf("random-plain/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := enum.NewEnumerator(d, rnd)
				k := 0
				e.Each(func(spans.Tuple) bool { k++; return k < 100 })
			}
		})
	}
}

// ---------- E13: exact answer counting ----------

// BenchmarkE13ExactCount measures counting without enumeration: the
// uncompressed DP is linear in the document, and the compressed counter
// is linear in the SLP — delivering astronomically large counts that
// enumeration could never produce.
func BenchmarkE13ExactCount(b *testing.B) {
	d := automata.Determinize(compileBench(b, ".*!x{(a|b)+}.*", "ab"))
	for _, exp := range []int{10, 14, 18} {
		n := 1 << exp
		doc := randomDoc(n, 21)
		b.Run(fmt.Sprintf("plain-dp/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enum.FastCount(d, doc)
			}
		})
	}
	for _, exp := range []int{20, 40, 60} {
		n := int64(1) << exp
		root := slp.Repeat(slp.FromBytes([]byte("ab")), n/2)
		b.Run(fmt.Sprintf("compressed/n=2^%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := slpmatch.NewCounter(d)
				if c.Count(root).Sign() <= 0 {
					b.Fatal("zero count")
				}
			}
		})
	}
}

// BenchmarkMinimize measures DEVA minimization (Moore refinement) on
// determinized spanners of growing size.
func BenchmarkMinimize(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		pattern := strings.Repeat("(a|b)", k) + "!x{a+}(!y{b+})?" + strings.Repeat("(b|a)", k)
		d := automata.Determinize(compileBench(b, pattern, "ab"))
		b.Run(fmt.Sprintf("states=%d", d.NumStates()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				automata.Minimize(d)
			}
		})
	}
}

// BenchmarkSerializeDB measures database persistence: writing stays
// proportional to the grammar even for multi-megabyte documents.
func BenchmarkSerializeDB(b *testing.B) {
	db := slp.NewDB()
	db.Add("big", slp.Repeat(slp.FromBytes([]byte("abcd")), 1<<20))
	db.Add("text", slp.Balance(slp.Compress([]byte(strings.Repeat("lorem ipsum dolor ", 512)))))
	var size int64
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			n, err := db.WriteTo(&buf)
			if err != nil {
				b.Fatal(err)
			}
			size = n
		}
		b.ReportMetric(float64(size), "bytes")
	})
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slp.ReadDB(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMarkerOrder compares the set-based ModelChecking
// (extended representation, Section 2.2 Option 2) with the naive
// treatment of the consecutive-marker-order problem: trying every
// ordering of each boundary's marker set as a plain symbol sequence —
// factorial in the markers per boundary.
func BenchmarkAblationMarkerOrder(b *testing.B) {
	// k empty bindings at one boundary: that boundary's marker set has
	// 2k markers, and the naive variant faces up to (2k)! orderings while
	// the set-based simulation explores at most 2^2k (state, subset)
	// configurations.
	for _, k := range []int{2, 3, 4} {
		var sb strings.Builder
		sb.WriteString("a")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "!v%d{()}", i)
		}
		sb.WriteString("a")
		nfa := compileBench(b, sb.String(), "ab")
		// Rejecting instance: the run fails only AFTER the marker
		// boundary, so the naive variant exhausts every ordering.
		doc := []byte("ab")
		tup := spans.Tuple{}
		for i := 0; i < k; i++ {
			tup[spans.Var(fmt.Sprintf("v%d", i))] = spans.S(2, 2)
		}
		b.Run(fmt.Sprintf("set-based/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := vset.ModelCheck(nfa, doc, tup, vset.Functional)
				if err != nil || ok {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("order-naive/k=%d", k), func(b *testing.B) {
			msw := refwords.FromTuple(doc, tup).ToMarkerSets()
			for i := 0; i < b.N; i++ {
				if naiveAcceptsMarked(nfa, msw) {
					b.Fatal("accepted")
				}
			}
		})
	}
}

// naiveAcceptsMarked tries every permutation of each boundary's marker
// set, checking plain symbol-sequence acceptance for each combination.
func naiveAcceptsMarked(n *automata.NFA, msw refwords.MarkerSetWord) bool {
	var try func(boundary int, states []int) bool
	step := func(states []int, advance func(q int) []int) []int {
		var out []int
		seen := map[int]bool{}
		for _, q := range states {
			for _, r := range advance(q) {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
		return n.EpsClosure(out)
	}
	try = func(boundary int, states []int) bool {
		if len(states) == 0 {
			return false
		}
		set := msw.Sets[boundary]
		// Enumerate permutations of the set (Heap's algorithm, small sets).
		perm := append(refwords.MarkerSet{}, set...)
		var permute func(k int) bool
		permute = func(k int) bool {
			if k == 1 || len(perm) == 0 {
				cur := states
				for _, mk := range perm {
					m := mk
					cur = step(cur, func(q int) []int { return n.Markers[q][m] })
					if len(cur) == 0 {
						return false
					}
				}
				if boundary == len(msw.Doc) {
					for _, q := range cur {
						if n.Final[q] {
							return true
						}
					}
					return false
				}
				bch := msw.Doc[boundary]
				cur = step(cur, func(q int) []int { return n.Letters[q][bch] })
				return try(boundary+1, cur)
			}
			for i := 0; i < k; i++ {
				if permute(k - 1) {
					return true
				}
				if k%2 == 0 {
					perm[i], perm[k-1] = perm[k-1], perm[i]
				} else {
					perm[0], perm[k-1] = perm[k-1], perm[0]
				}
			}
			return false
		}
		return permute(len(perm))
	}
	return try(0, n.EpsClosure([]int{n.Start}))
}

// ---------- E14: split-correctness by one equivalence check ----------

// BenchmarkE14SplitCorrect times CheckSplitCorrect on E14's split-correct
// pair: the extraction .*!x{aa}.* against the semicolon splitter. The
// check compiles the split-then-extract pipeline into one automaton and
// decides its equivalence with the spanner; no document is involved.
func BenchmarkE14SplitCorrect(b *testing.B) {
	opts := Options{Alphabet: []byte("ab;")}
	p := MustCompile(".*!x{aa}.*", opts)
	splitter := MustCompile("(.*;)?!s{[ab]*}(;.*)?", opts)
	for i := 0; i < b.N; i++ {
		correct, ce, err := CheckSplitCorrect(p, splitter, "s", nil, 4)
		if err != nil || !correct {
			b.Fatal(correct, ce, err)
		}
	}
}

// ---------- E17: the planner vs naive bottom-up evaluation ----------

// BenchmarkE17Planner runs each query of the E17 suite on the same
// document twice: planner-off is the classical bottom-up evaluation
// (DisableRewrites + NaiveBackend), planner-on the full rewrite pipeline
// with automatic backend selection. The suite is join- and
// selection-heavy, the shapes where the rewrites change the asymptotics
// rather than the constants; a planner-off op takes seconds.
func BenchmarkE17Planner(b *testing.B) {
	q := func(pattern string) *Query {
		return MustQ(MustCompile(pattern, Options{Alphabet: []byte("ab")}))
	}
	eval := func(q *Query, doc []byte) { q.Eval(doc) }
	suite := []struct {
		name  string
		query *Query
		doc   []byte
		op    func(*Query, []byte)
	}{
		// Duplicate union branches: SP008 dedup collapses the union to one
		// branch, which runs constant-delay instead of two naive scans.
		{"dedup-union/n=2^10", q(".*!x{a+}.*").Union(q(".*!x{aa*}.*")), randomDoc(1<<10, 41), eval},
		// Provably empty join (x must be "ab" and "ba" at the same span):
		// fusion yields an empty-language scan, which prune rewrites to ∅.
		{"dead-join/n=2^10", q(".*!x{ab}.*").Join(q(".*!x{ba}.*")), randomDoc(1<<10, 42), eval},
		// Projection pushdown drops j below the join, which then fuses to
		// one scan instead of building the {x, j} × {x} intermediate.
		{"proj-pushdown-join/n=2^9", q(".*!x{ab}.*!j{a}.*").Join(q(".*!x{ab}.*")).Project("x"), randomDoc(1<<9, 43), eval},
		// The selection survives every rewrite, but its input scan switches
		// from the naive automaton search to constant-delay enumeration.
		{"selection-scan/n=2^9", q(".*b!x{a+}b.*b!y{a+}b.*").SelectEqual("x", "y"), randomDoc(1<<9, 44), eval},
		// Planner-on counts a fused union without materializing anything.
		{"count-fused-union/n=2^10", q(".*!x{ab}.*").Union(q("a*!x{ba}(a|b)*")), randomDoc(1<<10, 45),
			func(q *Query, doc []byte) { q.Count(doc) }},
	}
	sides := []struct {
		name string
		opts PlanOptions
	}{
		{"planner-off", PlanOptions{DisableRewrites: true, NaiveBackend: true}},
		{"planner-on", PlanOptions{}},
	}
	for _, it := range suite {
		for _, side := range sides {
			pq := it.query.WithPlan(side.opts)
			b.Run(it.name+"/"+side.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					it.op(pq, it.doc)
				}
			})
		}
	}
}

// ---------- E25: the materializing backend on the loganalysis core query ----------

const logAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 :=[]>-.\n"

// serviceLog generates whole "[hh:mm] svc req=rN msg=MSG\n" lines up to
// size bytes — the log layout of examples/loganalysis and of bench/.
func serviceLog(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
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

// dupOperands are the two line patterns the examples/loganalysis core
// query joins; they share no variable.
func dupOperands(opts Options) (l, r *Spanner) {
	opts.Alphabet = []byte(logAlphabet)
	l = MustCompile(`(.*\n)?\[[0-9][0-9]:[0-9][0-9]\] [a-z]+ req=!r1{r[0-9]}[ ]msg=!m1{[a-z ]+}\n.*`, opts)
	r = MustCompile(`.*\n\[[0-9][0-9]:[0-9][0-9]\] [a-z]+ req=!r2{r[0-9]}[ ]msg=!m2{[a-z ]+}\n(.*\n?)?`, opts)
	return l, r
}

// dupQuery is the examples/loganalysis core query — requests that logged
// the same message twice — with its operators in the order bench/gen.go's
// srcDup spells them: π{r1,m1}(ς={r1,r2}(ς={m1,m2}(L ⋈ R))).
func dupQuery(opts Options) *Query {
	l, r := dupOperands(opts)
	return MustQ(l).Join(MustQ(r)).SelectEqual("m1", "m2").SelectEqual("r1", "r2").Project("r1", "m1")
}

// BenchmarkMaterializeDup evaluates dupQuery on service logs: the
// materializing backend's cost is the content-keyed equi-join (about a
// fifth of |L|·|R| rows, five messages), not the cross product.
func BenchmarkMaterializeDup(b *testing.B) {
	q := dupQuery(Options{})
	for _, kib := range []int{4, 16} {
		doc := serviceLog(kib<<10, 1)
		want := q.Count(doc)
		b.Run(fmt.Sprintf("log=%dKiB", kib), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := q.Count(doc); n != want || n == 0 {
					b.Fatal(n, want)
				}
			}
		})
	}
}

// TestDupEvalAllocs gates what one count of dupQuery allocates on a 4 KiB
// log: a few allocations per operand tuple (the scans still emit maps) and
// per result row, and nothing per pair of operand tuples. The same call
// allocated 60,104 times when the backend built the operands' cross
// product as map tuples (EXPERIMENTS.md E25).
func TestDupEvalAllocs(t *testing.T) {
	const crossProductAllocs = 60104
	doc := serviceLog(4<<10, 1)
	l, r := dupOperands(Options{})
	q := dupQuery(Options{})
	ctx := context.Background()
	want, err := q.CountSource(ctx, Text(doc))
	if err != nil || want == 0 {
		t.Fatalf("count %d, err %v", want, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if n, err := q.CountSource(ctx, Text(doc)); n != want || err != nil {
			t.Fatalf("count %d (err %v), want %d", n, err, want)
		}
	})
	rows := l.Count(doc) + r.Count(doc) + want
	t.Logf("%.0f allocations for |L|+|R|+|out| = %d rows", allocs, rows)
	if allocs > float64(4*rows) || allocs > crossProductAllocs/10 {
		t.Errorf("one dup count allocates %.0f times: want at most 4 per operand and result row (%d rows) and a tenth of the cross product's %d",
			allocs, rows, crossProductAllocs)
	}
}
