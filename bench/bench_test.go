package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"docspanner"
	"docspanner/internal/qsyntax"
)

func build(t *testing.T, wl *workload, seed int64, scale float64) *script {
	t.Helper()
	return wl.build(rand.New(rand.NewSource(seed)), scale)
}

// classShares counts read and write ops per round.
func classShares(sc *script) (shares [][2]int) {
	for _, r := range sc.rounds {
		var c [2]int
		for _, u := range r {
			for _, o := range u {
				if o.kind.isWrite() {
					c[1]++
				} else {
					c[0]++
				}
			}
		}
		shares = append(shares, c)
	}
	return shares
}

// The op sequence is a pure function of the seed: same seed, same bytes;
// another seed, other bytes but the same class shares in every round.
func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := build(t, wl, 7, 0.1), build(t, wl, 7, 0.1), build(t, wl, 8, 0.1)
		t.Logf("%s seed 7: sequence_sha256=%s", wl.name, a.digest())
		if a.digest() != b.digest() {
			t.Errorf("%s: the same seed gave two sequences", wl.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: two seeds gave the same sequence", wl.name)
		}
		sa, sc := classShares(a), classShares(c)
		for r := range sa {
			if sa[r] != sc[r] {
				t.Errorf("%s round %d: class shares %v with seed 7, %v with seed 8", wl.name, r, sa[r], sc[r])
			}
			if r > 1 && sa[r] != sa[1] {
				t.Errorf("%s round %d: class shares %v differ from round 1's %v", wl.name, r, sa[r], sa[1])
			}
		}
	}
}

// BENCHMARK.json and the harness declare the same workloads and the
// same metrics, name by name and unit by unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the committed op counts apply at %d", bf.RunSeconds, refSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d built", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		// 0.25 is the benchmark contract's ceiling. The committed timing
		// bounds sit at it: the acceptance holds the spread of ten runs
		// against the bound, and on the shared host that spread is 3-12 % in
		// a quiet hour and up to 24 % in a noisy one (AA_RESULTS.md).
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d printed", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// The by-construction oracle agrees with the paper's semantics: naive
// evaluation of the prepared queries, and of a sample of the ad-hoc
// ones, on a document small enough for it.
func TestOracleAgreesWithEvalNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := genLog(rng, 700)
	opts := docspanner.Options{Alphabet: []byte(logAlphabet)}
	// salt is the registration's unique planner budget; see
	// buildRegisterAdhoc for what goes wrong without it.
	check := func(name, src string, want int, tuples bool, salt int) {
		t.Helper()
		q, err := qsyntax.Parse(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if salt > 0 {
			q = q.WithPlan(docspanner.PlanOptions{MaxDeterminizeStates: adhocPlanBudget + salt})
		}
		naive, planned := q.EvalNaive(d.data), q.Eval(d.data)
		if naive.Len() != want || planned.Len() != want {
			t.Errorf("%s: oracle says %d tuples, EvalNaive %d, Eval %d", name, want, naive.Len(), planned.Len())
		}
		for _, tu := range naive.Tuples() {
			if !tuples {
				break
			}
			m := map[string]span{}
			for v, s := range tu {
				m[string(v)] = span{s.Begin, s.End}
			}
			if known, ok := d.checkTuple(name, m); !known || !ok {
				t.Errorf("%s: the oracle rejects %v, which EvalNaive returns", name, tu)
			}
		}
	}
	for name, q := range preparedSources {
		check(name, q.src, d.expectCount(name), true, 0)
	}
	for i := 0; i < 9; i++ { // every (raw, algebra) template pair once
		raw, rawWant, expr, exprWant := adhocSource(rng, i, d)
		check("adhoc raw", raw.src, rawWant, false, i+1)
		check("adhoc algebra", expr.src, exprWant, false, i+1)
	}
}

// testConfig builds the server once per test binary.
func testConfig(t *testing.T, name string) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllServers)
	return config{wl: findWorkload(name), seed: 5, seconds: 1, conns: 1, setups: 1, root: root, bin: bin}
}

// At one connection what the responses hold — status, version, count,
// tuples, payload bytes — repeats exactly from run to run, and nothing
// fails.
func TestResponsesRepeatAtOneConnection(t *testing.T) {
	for _, name := range []string{"serve_plain", "edit_views_disk"} {
		cfg := testConfig(t, name)
		sc := build(t, cfg.wl, cfg.seed, 0.04)
		var digests [2]string
		for i := range digests {
			res, err := runTimed(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.fails)
			}
			for _, m := range endToEnd {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s: the timed run printed no %s", name, m.name)
				}
			}
			digests[i] = res.responses
		}
		t.Logf("%s: responses_sha256=%s", name, digests[0])
		if digests[0] != digests[1] {
			t.Errorf("%s: two single-connection runs saw different responses", name)
		}
	}
}

// The traced run prints every per-layer metric, its count metrics repeat
// exactly, and it leaves a span file with parent links.
func TestTracedRunCountsRepeat(t *testing.T) {
	cfg := testConfig(t, "edit_views_disk")
	cfg.trace = true
	sc := build(t, cfg.wl, cfg.seed, 0.04)
	counts := []string{
		"automata.deva_states", "slp.grammar_nodes_per_kib", "slpmatch.recomputed_nodes_per_edit",
		"storage.fsyncs_per_write", "storage.wal_bytes_per_user_byte", "server.resp_bytes_per_tuple",
	}
	var runs [2]*result
	for i := range runs {
		res, err := runTraced(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("the traced run printed no %s", m.name)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("the traced run printed %d metrics, %d are declared", len(res.Metrics), len(perLayer))
		}
		runs[i] = res
	}
	for _, c := range counts {
		if a, b := runs[0].Metrics[c].Value, runs[1].Metrics[c].Value; a != b {
			t.Errorf("%s: %v in one run, %v in the next", c, a, b)
		}
	}
	raw, err := os.ReadFile(filepath.Join(cfg.root, outDirRel, "trace-edit_views_disk.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 1000 {
		t.Errorf("trace file holds %d bytes", len(raw))
	}
}

// spreadPct uses the quartiles of Python's statistics.quantiles(n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	got := spreadPct([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := 203.7037037037037; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("spreadPct = %v, Python says %v", got, want)
	}
}
