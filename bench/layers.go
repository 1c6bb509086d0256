package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"docspanner/internal/automata"
	"docspanner/internal/cluster"
	"docspanner/internal/server"
	"docspanner/internal/spans"
	"docspanner/internal/storage"
	"docspanner/internal/vset"
)

// perLayer lists the per-layer metrics in print order with their units.
// Layer = package name. "count" metrics repeat exactly at one connection.
var perLayer = []struct{ name, unit string }{
	{"qsyntax.parse_us", "us"}, {"regex.parse_us", "us"}, {"regex.compile_us", "us"},
	{"lint.passes_us", "us"},
	{"algebra.rewrite_us", "us"}, {"plan.build_us", "us"}, {"plan.cache_hit_rate", "ratio"},
	{"automata.determinize_us", "us"}, {"automata.deva_states", "count"}, {"automata.boolmul_ns", "ns"},
	{"enum.preprocess_us_per_kib", "us"}, {"enum.enumerate_ns_per_tuple", "ns"}, {"enum.count_us_per_kib", "us"},
	{"spans.sort_ns_per_tuple", "ns"}, {"spans.relation_add_ns_per_tuple", "ns"}, {"spans.join_us", "us"},
	{"slp.compress_ms_per_mib", "ms"}, {"slp.grammar_nodes_per_kib", "count"}, {"slp.cde_eval_us", "us"},
	{"slpmatch.warm_ms_per_knode", "ms"}, {"slpmatch.enumerate_ns_per_tuple", "ns"}, {"slpmatch.count_us", "us"},
	{"slpmatch.matrix_cache_hit_rate", "ratio"},
	{"slpmatch.warm_delta_us", "us"}, {"slpmatch.recomputed_nodes_per_edit", "count"},
	{"views.refresh_us", "us"}, {"views.diff_ns_per_tuple", "ns"},
	{"storage.wal_append_us", "us"}, {"storage.fsync_ms", "ms"}, {"storage.fsyncs_per_write", "count"},
	{"storage.wal_bytes_per_user_byte", "count"}, {"storage.snapshot_ms", "ms"}, {"storage.recovery_ms", "ms"},
	{"storage.disk_bytes_per_user_byte", "ratio"},
	{"docspanner.enumerate_us", "us"}, {"docspanner.count_us", "us"}, {"docspanner.layer_sum_ratio", "ratio"},
	{"server.handler_us", "us"}, {"server.query_us", "us"}, {"server.encode_write_us", "us"},
	{"server.http_overhead_us", "us"}, {"server.resp_bytes_per_tuple", "count"},
	{"cluster.proxy_hop_us", "us"}, {"cluster.frame_scan_ns_per_frame", "ns"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.mallocs_per_op", "count"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"host.calib_ms", "ms"}, {"host.calib_iqr_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// layerSumTolerance is how far the layers' parts may be from the facade
// total they split (the facade-sum check).
const layerSumTolerance = 0.10

// runTraced is the traced run: an HTTP replay with client spans and
// server scrapes around every other round (source A and the tracing
// overhead), then an in-process replay of set-up, warm-up and round 1 with a span around
// every call into a layer (source B). End-to-end numbers never come
// from here.
func runTraced(cfg config, sc *script) (*result, error) {
	res := newResult()
	tr := newTracer()
	values := map[string]float64{}

	if err := tracedHTTP(cfg, sc, tr, res, values); err != nil {
		return nil, err
	}
	idle := map[string]bool{}
	if err := tracedModel(cfg, sc, tr, values, idle); err != nil {
		return nil, err
	}
	if err := clusterProbe(sc, tr, values); err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.root, outDirRel, "trace-"+cfg.wl.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# trace: %d spans in %s\n", len(tr.spans), path)
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", m.name)
		}
		res.set(m.name, m.unit, v, nil)
		if idle[m.name] {
			res.notes[m.name] = "idle on this workload: from the coverage script"
		}
	}
	if r := values["docspanner.layer_sum_ratio"]; r < 1-layerSumTolerance || r > 1+layerSumTolerance {
		res.fails = append(res.fails, fmt.Sprintf("facade-sum check: the layers' parts are %.3f of the facade total, outside ±%.0f%%", r, 100*layerSumTolerance))
		res.Failed++
	}
	return res, nil
}

// --- source A: the HTTP replay ---

func tracedHTTP(cfg config, sc *script, tr *tracer, res *result, values map[string]float64) error {
	in, _, err := startInstance(cfg, sc)
	if err != nil {
		return err
	}
	defer in.stop()

	handlers := map[string]bool{}
	var delta scrapeDelta
	var calib, tracedRate, plainRate []float64
	var ops, clientNs, bodyBytes, bodyTuples float64
	opID := 0
	for r := 1; r <= numRounds; r++ {
		calib = append(calib, msOf(calibrate()))
		traced := r%2 == 1
		if traced {
			s, err := takeScrape(in.conns[0])
			if err != nil {
				return err
			}
			delta.before = append(delta.before, s)
		}
		rr := in.runRound(sc.rounds[r])
		rate := rr.metrics().values["ops_per_s"]
		if !traced {
			plainRate = append(plainRate, rate)
			in.checkViews(sc)
			continue
		}
		tracedRate = append(tracedRate, rate)
		s, err := takeScrape(in.conns[0])
		if err != nil {
			return err
		}
		delta.after = append(delta.after, s)
		in.checkViews(sc)
		for _, obs := range rr.obs {
			for i := range obs {
				ob := &obs[i]
				opID++
				tr.record(opID, "http."+ob.op.kind.String(), ob.start, ob.lat)
				handlers[ob.op.kind.handler()] = true
				ops++
				clientNs += float64(ob.lat)
				if (ob.op.kind == opEval || ob.op.kind == opStream) && ob.tuples > 0 {
					bodyBytes += float64(ob.payload)
					bodyTuples += float64(ob.tuples)
				}
			}
		}
	}
	res.absorb(in)

	var names []string
	for h := range handlers {
		names = append(names, h)
	}
	ofOps := labelIn("handler", names...)
	ofQueries := labelIn("handler", "eval", "count", "stream")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hSum := delta.sum("spannerd_request_duration_seconds_sum", ofOps)
	hCount := delta.sum("spannerd_request_duration_seconds_count", ofOps)
	qSum := delta.sum("spannerd_query_duration_seconds_sum", nil)
	qCount := delta.sum("spannerd_query_duration_seconds_count", nil)
	values["server.handler_us"] = 1e6 * ratio(hSum, hCount)
	values["server.query_us"] = 1e6 * ratio(qSum, qCount)
	values["server.encode_write_us"] = 1e6 * ratio(delta.sum("spannerd_request_duration_seconds_sum", ofQueries)-qSum, qCount)
	values["server.http_overhead_us"] = ratio(clientNs, ops)/1e3 - values["server.handler_us"]
	values["server.resp_bytes_per_tuple"] = ratio(bodyBytes, bodyTuples)

	hits := delta.sum("spannerd_plan_cache_hits_total", nil)
	values["plan.cache_hit_rate"] = ratio(hits, hits+delta.sum("spannerd_plan_cache_misses_total", nil))
	hits = delta.sum("spannerd_matrix_cache_hits_total", nil)
	values["slpmatch.matrix_cache_hit_rate"] = ratio(hits, hits+delta.sum("spannerd_matrix_cache_misses_total", nil))

	values["runtime.alloc_kb_per_op"] = ratio(delta.mem(func(s *scrape) float64 { return float64(s.mem.TotalAlloc) }), ops) / 1024
	values["runtime.mallocs_per_op"] = ratio(delta.mem(func(s *scrape) float64 { return float64(s.mem.Mallocs) }), ops)
	values["runtime.gc_cycles"] = delta.mem(func(s *scrape) float64 { return float64(s.mem.NumGC) })
	values["runtime.gc_pause_ms"] = delta.mem(func(s *scrape) float64 { return float64(s.mem.PauseTotalNs) }) / 1e6

	values["host.calib_ms"] = median(calib)
	values["host.calib_iqr_pct"] = iqrPct(calib)
	values["trace.overhead_pct"] = 100 * (1 - ratio(median(tracedRate), median(plainRate)))
	fmt.Printf("# http replay: %d traced rounds at %.1f ops/s, %d plain rounds at %.1f ops/s; noisy_host=%t\n",
		len(tracedRate), median(tracedRate), len(plainRate), median(plainRate), iqrPct(calib) > 10)
	return nil
}

// --- source B: the in-process replay ---

// coverage is a short script over the workload's own first document and
// the prepared queries that touches every layer. It runs after the
// replay, on a model of its own with a disk backend. The contract wants
// a measured number for every per-layer metric on every workload; a
// layer that the workload's own ops leave idle takes its number from
// here, and the output and the trace file mark it.
func coverage(sc *script) []*op {
	rng := rand.New(rand.NewSource(1))
	cut, small := firstDoc(sc, 500), firstDoc(sc, 60)

	ops := []*op{putDocOp("cov.plain", cut, false), putDocOp("cov.slp", cut, true), putDocOp("cov.small", small, false)}
	for _, q := range []string{"rec", "denied", "tok", "dup"} {
		ops = append(ops, putQueryOp("cov."+q, preparedSources[q], 0))
	}
	for _, q := range []string{"cov.rec", "cov.denied", "cov.tok"} {
		ops = append(ops, warmOp("cov.slp", q))
		for kind := 0; kind < numReadKinds; kind++ {
			ops = append(ops, readOp(kind, q, "cov.plain", 0), readOp(kind, q, "cov.slp", 0))
		}
	}
	ops = append(ops, readOp(readEval, "cov.dup", "cov.small", 0))
	for _, q := range []string{"cov.denied", "cov.tok"} {
		v := newOp(opViewPut, "PUT", "")
		v.doc, v.query = "cov.slp", q
		ops = append(ops, v)
	}
	m := mirror(cut.lines)
	for i := 0; i < 8; i++ {
		var expr string
		expr, m = nextEdit(rng, "cov.slp", m, len(cut.lines), []string{"cov.small"}, []*logDoc{small})
		ops = append(ops, editOp("cov.slp", expr, nil))
		c := newOp(opChanges, "GET", "")
		c.doc, c.query = "cov.slp", "cov.denied"
		ops = append(ops, c)
	}
	return append(ops, newOp(opSnapshot, "POST", ""))
}

// firstDoc is the first n lines (or all) of the first document the
// script uploads.
func firstDoc(sc *script, n int) *logDoc {
	for _, o := range sc.setup {
		if d, ok := o.after.(*logDoc); ok && o.kind == opPutDoc {
			last := d.lines[min(len(d.lines), n)-1]
			return parseLog(d.data[:last.start+last.length()])
		}
	}
	panic("the script uploads no document")
}

// modelRun is what one in-process run recorded: the totals of its spans
// and what the model counted beside them.
type modelRun struct {
	m         *model
	totals    map[string]spanTotal
	recovery  time.Duration
	diskBytes int64
	stats     storage.Stats
}

// runModel replays ops on a fresh model — on the disk backend in dir, or
// on the memory backend when dir is empty —, runs the probes that feed on
// its state, and closes it.
func runModel(tr *tracer, dir string, ops []*op) (*modelRun, error) {
	first := len(tr.spans)
	m, err := newModel(tr, dir, tr.nextOp())
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		if err := m.exec(o); err != nil {
			return nil, err
		}
	}
	spansProbe(m)
	matrixProbe(m)
	r := &modelRun{m: m}
	r.recovery, r.diskBytes, r.stats, err = m.finish()
	r.totals = tr.totalsFrom(first)
	return r, err
}

// layerValues turns one run into the per-layer metrics of source B. A
// metric whose spans the run never recorded is left out.
func (r *modelRun) layerValues() map[string]float64 {
	values := map[string]float64{}
	t, m := r.totals, r.m
	// set records a metric that rests on at least one call.
	set := func(name string, on spanTotal, v float64) {
		if on.calls > 0 {
			values[name] = v
		}
	}
	const kib, mib = 1 << 10, 1 << 20

	// A registration's compound calls minus the parts timed separately,
	// per registration.
	reg := float64(max(t["op.put_query"].calls, 1))
	perReg := func(name string) float64 { return float64(t[name].ns) / 1e3 / reg }
	set("regex.parse_us", t["regex.Parse"], perReg("regex.Parse"))
	set("regex.compile_us", t["regex.Compile"], perReg("regex.Compile"))
	set("qsyntax.parse_us", t["qsyntax.Parse"], max(0, perReg("qsyntax.Parse")-perReg("regex.Parse")-perReg("regex.Compile")))
	set("lint.passes_us", t["lint.Lint"], t["lint.Lint"].perCall())
	set("algebra.rewrite_us", t["algebra.rewrite"], t["algebra.rewrite"].perCall())
	set("plan.build_us", t["plan.New"], max(0, t["plan.New"].perCall()-t["algebra.rewrite"].perCall()))
	det := t["automata.Determinize"]
	set("automata.determinize_us", det, det.perCall())
	set("automata.deva_states", det, float64(det.n)/float64(max(det.calls, 1)))
	set("automata.boolmul_ns", t["automata.MulInto"], t["automata.MulInto"].perN(1))

	set("enum.preprocess_us_per_kib", t["enum.NewEnumerator"], t["enum.NewEnumerator"].perN(1e3)*kib)
	set("enum.enumerate_ns_per_tuple", t["enum.EachTotal"], t["enum.EachTotal"].perN(1))
	set("enum.count_us_per_kib", t["enum.CountTotal"], t["enum.CountTotal"].perN(1e3)*kib)
	set("spans.sort_ns_per_tuple", t["spans.SortTuples"], t["spans.SortTuples"].perN(1))
	set("spans.relation_add_ns_per_tuple", t["spans.Relation.Add"], t["spans.Relation.Add"].perN(1))
	set("spans.join_us", t["spans.Relation.Join"], t["spans.Relation.Join"].perCall())

	comp := t["slp.Compress"]
	set("slp.compress_ms_per_mib", comp, comp.perN(1e6)*mib)
	set("slp.grammar_nodes_per_kib", comp, float64(m.compNodes)/float64(max(m.compBytes, 1))*kib)
	set("slp.cde_eval_us", t["slp.CDE"], t["slp.CDE"].perCall())

	set("slpmatch.warm_ms_per_knode", t["slpmatch.Warm"], t["slpmatch.Warm"].perN(1e6)*1000)
	set("slpmatch.enumerate_ns_per_tuple", t["slpmatch.Each"], t["slpmatch.Each"].perN(1))
	set("slpmatch.count_us", t["slpmatch.CountTotal"], t["slpmatch.CountTotal"].perCall())
	wd := t["slpmatch.WarmDelta"]
	set("slpmatch.warm_delta_us", wd, wd.perCall())
	set("slpmatch.recomputed_nodes_per_edit", wd, float64(wd.n)/float64(max(wd.calls, 1)))
	set("views.refresh_us", t["views.Refresh"], t["views.Refresh"].perCall())
	set("views.diff_ns_per_tuple", t["views.Changes"], t["views.Changes"].perN(1))

	// Storage: only a model on the disk backend recorded any of these.
	var appends spanTotal
	for _, n := range []string{"storage.PutDoc", "storage.EditDoc", "storage.PutQuery", "storage.DeleteQuery"} {
		appends.calls, appends.ns = appends.calls+t[n].calls, appends.ns+t[n].ns
	}
	set("storage.wal_append_us", appends, appends.perCall())
	set("storage.fsync_ms", t["storage.Sync"], t["storage.Sync"].perCall()/1e3)
	set("storage.fsyncs_per_write", appends, float64(r.stats.Fsyncs)/float64(max(m.writes, 1)))
	set("storage.wal_bytes_per_user_byte", appends, float64(r.stats.WALAppendedBytes)/float64(max(m.userBytes, 1)))
	set("storage.snapshot_ms", t["storage.Snapshot"], t["storage.Snapshot"].perCall()/1e3)
	set("storage.recovery_ms", t["storage.OpenDisk+Load"], msOf(r.recovery))
	set("storage.disk_bytes_per_user_byte", appends, float64(r.diskBytes)/float64(max(m.userBytes, 1)))

	set("docspanner.enumerate_us", t["docspanner.Enumerate"], t["docspanner.Enumerate"].perCall())
	set("docspanner.count_us", t["docspanner.Count"], t["docspanner.Count"].perCall())
	if m.facadeNs > 0 {
		values["docspanner.layer_sum_ratio"] = float64(m.layerNs) / float64(m.facadeNs)
	}
	return values
}

// tracedModel replays set-up, warm-up and round 1 in-process, then the
// coverage script, and fills in the metrics of source B: from the replay
// where the workload's own ops reach the layer, from the coverage script
// (named in idle) where they do not.
func tracedModel(cfg config, sc *script, tr *tracer, values map[string]float64, idle map[string]bool) error {
	out := filepath.Join(cfg.root, outDirRel)
	tmp := func(tag string) (string, error) {
		return os.MkdirTemp(out, fmt.Sprintf("%s%d-%s-", tmpPrefix, os.Getpid(), tag))
	}
	// The warm-up round too: round 1's edits are positioned against the
	// document the warm-up's edits left.
	ops := append([]*op(nil), sc.setup...)
	for _, r := range sc.rounds[:2] {
		for _, u := range r {
			ops = append(ops, u...)
		}
	}
	dir := "" // the replay runs on the backend the workload's server has
	if cfg.wl.fsync != "" {
		var err error
		if dir, err = tmp("model"); err != nil {
			return err
		}
		defer os.RemoveAll(dir) // the model removes it itself unless it failed
	}
	replay, err := runModel(tr, dir, ops)
	if err != nil {
		return err
	}
	covDir, err := tmp("coverage")
	if err != nil {
		return err
	}
	defer os.RemoveAll(covDir)
	tr.coverage = true
	cov, err := runModel(tr, covDir, coverage(sc))
	tr.coverage = false
	if err != nil {
		return err
	}
	own := replay.layerValues()
	for name, v := range cov.layerValues() {
		values[name], idle[name] = v, true
	}
	for name, v := range own {
		values[name] = v
		delete(idle, name)
	}
	wd := replay.totals["slpmatch.WarmDelta"]
	fmt.Printf("# in-process replay: %d ops, %d metrics from them and %d from the coverage script; recomputed nodes %d over %d delta warms\n",
		len(ops), len(own), len(idle), wd.n, wd.calls)
	return nil
}

// spansProbe times the relational operators on real result sets: Add
// over the largest materialized result of the run, and the join of the
// two operand relations of a two-operand query on the smallest plain
// document. A run with no such result or query records neither.
func spansProbe(m *model) {
	m.op++
	if len(m.lastEval) > 0 {
		m.span(0, "spans.Relation.Add", func() int {
			r := spans.NewRelation()
			for _, t := range m.lastEval {
				r.Add(t)
			}
			return len(m.lastEval)
		})
	}
	var doc []byte
	for _, d := range m.docs {
		if d.plain != nil && (doc == nil || len(d.plain) < len(doc)) {
			doc = d.plain
		}
	}
	for _, q := range m.qs {
		if len(q.patterns) == 2 && doc != nil {
			l, r := vset.Eval(q.patterns[0], doc, vset.Functional), vset.Eval(q.patterns[1], doc, vset.Functional)
			m.span(0, "spans.Relation.Join", func() int { return l.Join(r).Len() })
			return
		}
	}
}

// matrixProbe times the Boolean matrix product at the size of the
// workload's own automata (the kernel under every cold slpmatch warm).
func matrixProbe(m *model) {
	n := 0
	for _, q := range m.qs {
		if q.deva != nil {
			n = max(n, q.deva.NumStates())
		}
	}
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(1))
	a, b, out := automata.NewBoolMatrix(n), automata.NewBoolMatrix(n), automata.NewBoolMatrix(n)
	for i := 0; i < n*n/8; i++ {
		a.Set(rng.Intn(n), rng.Intn(n))
		b.Set(rng.Intn(n), rng.Intn(n))
	}
	const reps = 2000
	m.op++
	m.span(0, "automata.MulInto", func() int {
		for i := 0; i < reps; i++ {
			out.MulInto(a, b)
		}
		return reps
	})
}

// --- cluster ---

// clusterProbe measures the coordinator's proxy hop over ONE in-process
// worker (/count through the coordinator against /count direct) and the
// NDJSON frame scanner on a recorded stream. Two cores cannot host a
// fleet, so there is no timed cluster workload; these two numbers give
// the serving-collapse work a before and an after.
func clusterProbe(sc *script, tr *tracer, values map[string]float64) error {
	worker, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	defer worker.Close()
	ws := httptest.NewServer(worker)
	defer ws.Close()
	coord, err := server.NewCoordinator(server.CoordinatorConfig{Workers: []string{ws.URL}, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		return err
	}
	defer coord.Close()
	cs := httptest.NewServer(coord)
	defer cs.Close()

	// A 60-line document: the hop, not the count, should dominate.
	doc, query := putDocOp("c", firstDoc(sc, 60), false), putQueryOp("rec", preparedSources["rec"], 0)
	call := func(base, method, path string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
		}
		return out, err
	}
	// The coordinator routes only once its prober has seen the worker up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = call(cs.URL, "PUT", "/docs/c", doc.body); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err == nil {
		_, err = call(cs.URL, "PUT", "/queries/rec", query.body)
	}
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	// Alternate the two sides, so a host burst hits both, and compare
	// medians: a single slow call would move a mean of this few.
	const reps = 100
	op := tr.nextOp()
	sides := []struct {
		name, base string
		us         []float64
	}{{"cluster.count_direct", ws.URL, nil}, {"cluster.count_via_coordinator", cs.URL, nil}}
	for i := 0; i < reps; i++ {
		for k := range sides {
			side := &sides[k]
			id := tr.span(0, op, side.name, func() int {
				_, err = call(side.base, "GET", "/count?query=rec&doc=c", nil)
				return 1
			})
			if err != nil {
				return fmt.Errorf("cluster probe: %w", err)
			}
			side.us = append(side.us, float64(tr.duration(id))/1e3)
		}
	}
	stream, err := call(ws.URL, "GET", "/stream?query=rec&doc=c&content=0", nil)
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	tr.span(0, op, "cluster.FrameScanner", func() int {
		frames := 0
		for i := 0; i < 20; i++ {
			fs := cluster.NewFrameScanner(bytes.NewReader(stream))
			for {
				if _, err = fs.Next(); err != nil {
					break
				}
				frames++
			}
		}
		return frames
	})
	if err != io.EOF {
		return fmt.Errorf("cluster probe: frame scanner: %w", err)
	}
	values["cluster.proxy_hop_us"] = median(sides[1].us) - median(sides[0].us)
	values["cluster.frame_scan_ns_per_frame"] = tr.totalsFrom(0)["cluster.FrameScanner"].perN(1)
	return nil
}
