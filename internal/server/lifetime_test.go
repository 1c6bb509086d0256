package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"docspanner/internal/slpmatch"
)

// TestFlushKeepsOneTableSet: /admin/flush-caches empties a query's
// tables in place, so the live view and /eval go on sharing them — the
// second toucher of a document adds no matrix-cache misses — and the
// process-wide counters never rewind.
func TestFlushKeepsOneTableSet(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d?compress=1", strings.Repeat("abba", 200))
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	code, _ := do(t, s, "PUT", "/docs/d/views/q", "")
	mustStatus(t, code, 201, "view put")

	misses := func() uint64 { _, m := slpmatch.CacheStats(); return m }
	edit := func() uint64 { // one edit and its view refresh; returns the nodes it missed
		m := misses()
		code, _ := do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, extract(d, 1, 2))"}`)
		mustStatus(t, code, 200, "edit")
		return misses() - m
	}
	warm := edit()

	h0, _ := slpmatch.CacheStats()
	r0, u0 := slpmatch.WarmDeltaStats()
	code, _ = do(t, s, "POST", "/admin/flush-caches", "")
	mustStatus(t, code, 200, "flush")

	// The next edit's view refresh is the first toucher: it refills the
	// flushed tables for the new version.
	cold := edit()
	if cold <= warm {
		t.Errorf("view refresh missed %d nodes after a flush, %d before: the flush did not empty the view's tables", cold, warm)
	}
	h1, m1 := slpmatch.CacheStats()
	r1, u1 := slpmatch.WarmDeltaStats()
	if h1 < h0 || r1 <= r0 || u1 < u0 {
		t.Errorf("counters rewound across a flush: hits %d -> %d, warm totals (%d,%d) -> (%d,%d)", h0, h1, r0, u0, r1, u1)
	}

	code, body := do(t, s, "GET", "/eval?query=q&doc=d&content=0", "")
	mustStatus(t, code, 200, "eval")
	if body["count"] != float64(202) {
		t.Fatalf("eval after flush and edits: count %v, want 202", body["count"])
	}
	if _, m2 := slpmatch.CacheStats(); m2 != m1 {
		t.Errorf("/eval after the view's refresh missed %d nodes: view and /eval hold different tables", m2-m1)
	}
}

// TestDeletedQueriesAreCollected: registering, evaluating and deleting
// a query leaves nothing of it on the heap, on plain and on compressed
// documents.
func TestDeletedQueriesAreCollected(t *testing.T) {
	s := newTestServer(t, Config{})
	text := strings.Repeat("abbabaabbbaababbaaab", 90)
	do(t, s, "PUT", "/docs/plain", text)
	do(t, s, "PUT", "/docs/slp?compress=1", text)
	word := func(i int) string {
		var sb strings.Builder
		for k := 0; k < 8; k++ {
			sb.WriteByte("ab"[(i>>k)&1])
		}
		return sb.String()
	}
	cycle := func(from, n int) {
		for i := from; i < from+n; i++ {
			code, _ := do(t, s, "PUT", "/queries/q", fmt.Sprintf(`{"src": ".*!x{%s}.*", "alphabet": "ab"}`, word(i)))
			mustStatus(t, code, 200, "register")
			for _, target := range []string{"/eval?query=q&doc=plain&content=0", "/count?query=q&doc=plain", "/eval?query=q&doc=slp&content=0", "/count?query=q&doc=slp"} {
				code, _ = do(t, s, "GET", target, "")
				mustStatus(t, code, 200, target)
			}
			code, _ = do(t, s, "DELETE", "/queries/q", "")
			mustStatus(t, code, 200, "delete")
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // sync.Pool contents survive one cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const (
		cycles      = 100
		perCycleMax = 4 << 10
	)
	cycle(0, 8) // pools, metric series, lazily built package state
	before := liveHeap()
	cycle(8, cycles)
	after := liveHeap()
	if grown := int64(after) - int64(before); grown > cycles*perCycleMax {
		t.Errorf("live heap grew by %d bytes over %d register/evaluate/delete cycles (%d per cycle, want < %d)",
			grown, cycles, grown/cycles, perCycleMax)
	}
}

// metricValue reads one unlabelled sample from /metrics.
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	mustStatus(t, rec.Code, 200, "metrics")
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestReplacedDocumentsAreForgotten replaces one compressed document 64
// times with fresh text, warming a query on every version, beside a
// document that stays: the query's tables hold the live grammar within
// the sweep budget throughout, and deleting the replaced document
// leaves only the other document's share, which stays warm.
func TestReplacedDocumentsAreForgotten(t *testing.T) {
	s := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))
	text := func() string {
		b := make([]byte, 8<<10)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return string(b)
	}
	code, _ := do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*", "alphabet": "ab"}`)
	mustStatus(t, code, 200, "register")
	put := func(name string) float64 {
		t.Helper()
		code, body := do(t, s, "PUT", "/docs/"+name+"?compress=1", text())
		mustStatus(t, code, 200, "put "+name)
		code, _ = do(t, s, "POST", "/docs/"+name+"/warm?query=q", "")
		mustStatus(t, code, 200, "warm "+name)
		return body["grammar_size"].(float64)
	}
	keep := put("keep")
	kd, err := s.store.get("keep")
	if err != nil {
		t.Fatal(err)
	}
	keepTabled := float64(slpmatch.TabledNodes(kd.doc.Node())) // the index's share of keep
	forgotten0 := metricValue(t, s, "spannerd_index_forgotten_nodes_total")

	var peak float64
	for i := 0; i < 64; i++ {
		live := keep + put("doc")
		nodes := metricValue(t, s, "spannerd_index_nodes")
		if bound := 1.25*live + slpmatch.RetainFloor; nodes > bound {
			t.Fatalf("after version %d: spannerd_index_nodes = %v, want ≤ 1.25 × %v live + %d", i+1, nodes, live, slpmatch.RetainFloor)
		}
		peak = max(peak, nodes)
	}
	if forgotten := metricValue(t, s, "spannerd_index_forgotten_nodes_total") - forgotten0; forgotten < 32*keepTabled {
		t.Errorf("sweeps forgot %v nodes over 64 versions of a document with %v tabled nodes", forgotten, keepTabled)
	}

	code, _ = do(t, s, "DELETE", "/docs/doc", "")
	mustStatus(t, code, 200, "delete")
	if nodes := metricValue(t, s, "spannerd_index_nodes"); nodes > keep || nodes == 0 {
		t.Errorf("after the DELETE: spannerd_index_nodes = %v, want the remaining document's share (≤ %v, > 0)", nodes, keep)
	}
	_, m0 := slpmatch.CacheStats()
	code, _ = do(t, s, "GET", "/count?query=q&doc=keep", "")
	mustStatus(t, code, 200, "count")
	if _, m1 := slpmatch.CacheStats(); m1 != m0 {
		t.Errorf("the remaining document missed %d nodes: its data was forgotten", m1-m0)
	}
	t.Logf("document grammar ≈ %v nodes, %v tabled; peak spannerd_index_nodes %v", keep, keepTabled, peak)
}
