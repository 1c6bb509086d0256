package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"docspanner"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do runs one request against the handler and decodes the JSON body.
func do(t *testing.T, s *Server, method, target, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

func mustStatus(t *testing.T, got int, want int, ctx string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: status = %d, want %d", ctx, got, want)
	}
}

func TestDocumentLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})

	code, body := do(t, s, "PUT", "/docs/d1", "aabbab")
	mustStatus(t, code, 200, "put d1")
	if body["compressed"] != false || body["len"] != float64(6) {
		t.Fatalf("put d1: %v", body)
	}

	code, body = do(t, s, "PUT", "/docs/d2?compress=1", "abababab")
	mustStatus(t, code, 200, "put d2")
	if body["compressed"] != true {
		t.Fatalf("put d2 not compressed: %v", body)
	}

	code, body = do(t, s, "GET", "/docs", "")
	mustStatus(t, code, 200, "list")
	if n := len(body["docs"].([]any)); n != 2 {
		t.Fatalf("list: %d docs, want 2", n)
	}

	// Content round-trips, decompressing the compressed one.
	req := httptest.NewRequest("GET", "/docs/d2?content=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Body.String() != "abababab" {
		t.Fatalf("d2 content = %q", rec.Body.String())
	}

	// Compressing a plain document bumps the version and keeps the text.
	code, body = do(t, s, "POST", "/docs/d1/compress", "")
	mustStatus(t, code, 200, "compress d1")
	if body["compressed"] != true || body["version"] != float64(2) {
		t.Fatalf("compress d1: %v", body)
	}

	code, _ = do(t, s, "DELETE", "/docs/d2", "")
	mustStatus(t, code, 200, "delete d2")
	code, _ = do(t, s, "GET", "/docs/d2", "")
	mustStatus(t, code, 404, "get deleted d2")
	code, _ = do(t, s, "DELETE", "/docs/d2", "")
	mustStatus(t, code, 404, "delete deleted d2")
}

func TestCDEEdit(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/a", "hello ")
	do(t, s, "PUT", "/docs/b?compress=1", "world!")

	code, body := do(t, s, "POST", "/docs/c/edit", `{"expr": "concat(a, b)"}`)
	mustStatus(t, code, 200, "edit concat")
	if body["compressed"] != true {
		t.Fatalf("edit result should be compressed: %v", body)
	}
	req := httptest.NewRequest("GET", "/docs/c?content=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Body.String() != "hello world!" {
		t.Fatalf("edited content = %q", rec.Body.String())
	}

	// In-place edit bumps the version.
	code, body = do(t, s, "POST", "/docs/c/edit", `{"expr": "delete(c, 1, 6)"}`)
	mustStatus(t, code, 200, "edit delete")
	if body["version"] != float64(2) {
		t.Fatalf("edit version: %v", body)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/docs/c?content=1", nil))
	if rec.Body.String() != "world!" {
		t.Fatalf("edited content = %q", rec.Body.String())
	}

	// CDE failures are 422 with one structured diagnostic, like query
	// registration rejections.
	code, body = do(t, s, "POST", "/docs/c/edit", `{"expr": "concat(nosuch, c)"}`)
	mustStatus(t, code, 422, "edit with unknown doc")
	if !strings.Contains(body["error"].(string), "nosuch") {
		t.Fatalf("edit error: %v", body)
	}
	if _, ok := body["diagnostics"]; !ok {
		t.Fatalf("edit error lacks diagnostics: %v", body)
	}
}

func TestQueryRegistration(t *testing.T) {
	s := newTestServer(t, Config{})

	code, body := do(t, s, "PUT", "/queries/q1", `{"src": ".*!x{ab}.*"}`)
	mustStatus(t, code, 200, "register q1")
	if body["regular"] != true || body["streaming"] != true {
		t.Fatalf("q1 info: %v", body)
	}

	// Prefix algebra syntax works too.
	code, body = do(t, s, "PUT", "/queries/q2",
		`{"src": "project(x; join(.*!x{ab}.*; .*!x{ab}.*))"}`)
	mustStatus(t, code, 200, "register q2")
	if vars := body["vars"].([]any); len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("q2 vars: %v", body)
	}

	// Unparsable input is a 400.
	code, _ = do(t, s, "PUT", "/queries/bad", `{"src": "union(a)"}`)
	mustStatus(t, code, 400, "register unparsable")

	// An unsatisfiable query (SP001, severity error) is rejected by the
	// default lint threshold, with diagnostics attached.
	code, body = do(t, s, "PUT", "/queries/empty", `{"src": "minus(ab; ab)"}`)
	mustStatus(t, code, 422, "register unsatisfiable")
	if body["diagnostics"] == nil {
		t.Fatalf("lint rejection without diagnostics: %v", body)
	}
	// ...unless the registration opts out.
	code, _ = do(t, s, "PUT", "/queries/empty", `{"src": "minus(ab; ab)", "fail_on": "never"}`)
	mustStatus(t, code, 200, "register unsatisfiable with fail_on=never")

	// Joins where one operand can leave a shared variable unassigned
	// (a union of different schemas, or any operand under schemaless
	// semantics) match every binding of it, so they are not provably
	// empty: both register under the default threshold and return the
	// one tuple they extract from "b".
	do(t, s, "PUT", "/docs/b", "b")
	for _, q := range []struct{ name, spec string }{
		{"unionjoin", `{"src": "seleq(x,y; join(union(!y{b}; !x{b}); !x{b}))", "alphabet": "ab"}`},
		{"schemalessjoin", `{"src": "join((!v{a}|b); !v{b})", "schemaless": true, "alphabet": "ab"}`},
	} {
		code, body = do(t, s, "PUT", "/queries/"+q.name, q.spec)
		if code != 200 {
			t.Errorf("register %s: status = %d, want 200: %v", q.name, code, body)
			continue
		}
		code, body = do(t, s, "GET", "/eval?query="+q.name+"&doc=b", "")
		mustStatus(t, code, 200, "eval "+q.name)
		if body["count"] != float64(1) {
			t.Errorf("eval %s on \"b\": %v, want count 1", q.name, body)
		}
	}

	code, body = do(t, s, "GET", "/queries/q1/explain", "")
	mustStatus(t, code, 200, "explain")
	if !strings.Contains(body["plan"].(string), "constant-delay") {
		t.Fatalf("explain plan: %v", body["plan"])
	}

	code, _ = do(t, s, "DELETE", "/queries/q2", "")
	mustStatus(t, code, 200, "delete q2")
	code, _ = do(t, s, "GET", "/queries/q2", "")
	mustStatus(t, code, 404, "get deleted q2")
}

// evalSpans extracts the (begin,end) pairs of variable x from a response.
func evalSpans(t *testing.T, body map[string]any) []docspanner.Span {
	t.Helper()
	var out []docspanner.Span
	for _, raw := range body["tuples"].([]any) {
		m := raw.(map[string]any)["x"].(map[string]any)
		out = append(out, docspanner.NewSpan(int(m["begin"].(float64)), int(m["end"].(float64))))
	}
	return out
}

// libSpans computes the expected x-spans with the library facade.
func libSpans(t *testing.T, pattern, doc string) []docspanner.Span {
	t.Helper()
	sp, err := docspanner.Compile(pattern, docspanner.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out []docspanner.Span
	for _, tup := range sp.Eval([]byte(doc)).Sorted() {
		out = append(out, tup["x"])
	}
	return out
}

func TestEvalCountStreamAgainstLibrary(t *testing.T) {
	const pattern = ".*!x{ab*}.*"
	const doc = "abbabaabbb"
	want := libSpans(t, pattern, doc)

	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/plain", doc)
	do(t, s, "PUT", "/docs/comp?compress=1", doc)
	code, _ := do(t, s, "PUT", "/queries/q", fmt.Sprintf(`{"src": %q}`, pattern))
	mustStatus(t, code, 200, "register")

	for _, docName := range []string{"plain", "comp"} {
		code, body := do(t, s, "GET", "/eval?query=q&doc="+docName, "")
		mustStatus(t, code, 200, "eval "+docName)
		got := evalSpans(t, body)
		if len(got) != len(want) {
			t.Fatalf("eval %s: %d tuples, want %d", docName, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("eval %s: tuple %d = %v, want %v", docName, i, got[i], want[i])
			}
		}

		code, body = do(t, s, "GET", "/count?query=q&doc="+docName, "")
		mustStatus(t, code, 200, "count "+docName)
		if body["count"] != float64(len(want)) {
			t.Fatalf("count %s = %v, want %d", docName, body["count"], len(want))
		}

		req := httptest.NewRequest("GET", "/stream?query=q&doc="+docName, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != len(want)+1 {
			t.Fatalf("stream %s: %d lines, want %d tuples + summary", docName, len(lines), len(want))
		}
		var summary map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("stream summary: %v", err)
		}
		if summary["done"] != true || summary["count"] != float64(len(want)) {
			t.Fatalf("stream %s summary: %v", docName, summary)
		}
	}
}

func TestStreamLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d", "abababab")
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	req := httptest.NewRequest("GET", "/stream?query=q&doc=d&limit=2", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 { // 2 tuples + summary
		t.Fatalf("limited stream: %d lines: %q", len(lines), rec.Body.String())
	}
}

// flushRecorder wraps httptest.ResponseRecorder to record how many
// bytes had been written when the handler first called Flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	bytesAtFirstFlush int
	flushes           int
}

func (f *flushRecorder) Flush() {
	if f.flushes == 0 {
		f.bytesAtFirstFlush = f.Body.Len()
	}
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestStreamFlushesFirstTupleEarly asserts the streaming contract: on a
// constant-delay plan the first NDJSON line is flushed to the client
// before the result is fully materialized (i.e. at the first flush
// exactly one tuple line had been written, not the whole relation).
func TestStreamFlushesFirstTupleEarly(t *testing.T) {
	s := newTestServer(t, Config{})
	doc := strings.Repeat("ab", 500) // 500 result tuples
	do(t, s, "PUT", "/docs/big", doc)
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	req := httptest.NewRequest("GET", "/stream?query=q&doc=big&content=0", nil)
	s.ServeHTTP(rec, req)

	if rec.Header().Get("X-Streaming-Plan") != "true" {
		t.Fatalf("expected a streaming plan")
	}
	total := rec.Body.Len()
	// First tuple immediately, then every streamFlushEvery tuples, then
	// the summary: 500 tuples → 1 + 7 + 1 flushes.
	if want := 1 + (500-1)/streamFlushEvery + 1; rec.flushes != want {
		t.Fatalf("flushes = %d, want %d (first tuple + every %d + summary)", rec.flushes, want, streamFlushEvery)
	}
	if rec.bytesAtFirstFlush <= 0 || rec.bytesAtFirstFlush >= total/100 {
		t.Fatalf("first flush after %d of %d bytes: first tuple was not streamed before materialization", rec.bytesAtFirstFlush, total)
	}
	first := strings.SplitN(rec.Body.String(), "\n", 2)[0]
	var tup map[string]any
	if err := json.Unmarshal([]byte(first), &tup); err != nil {
		t.Fatalf("first NDJSON line %q: %v", first, err)
	}
	if rec.bytesAtFirstFlush != len(first)+1 {
		t.Fatalf("first flush at %d bytes, want exactly the first line (%d bytes)", rec.bytesAtFirstFlush, len(first)+1)
	}
}

func TestBatchMixedRepresentations(t *testing.T) {
	const pattern = ".*!x{ab}.*"
	s := newTestServer(t, Config{})
	docs := []string{"abab", "ab", "", "aabb", "abababab"}
	for i, d := range docs {
		target := fmt.Sprintf("/docs/m%d", i)
		if i%2 == 1 {
			target += "?compress=1"
		}
		do(t, s, "PUT", target, d)
	}
	do(t, s, "PUT", "/queries/q", fmt.Sprintf(`{"src": %q}`, pattern))

	code, body := do(t, s, "POST", "/batch",
		`{"query": "q", "docs": ["m0","m1","m2","m3","m4"], "workers": 4, "content": false}`)
	mustStatus(t, code, 200, "batch")
	results := body["results"].([]any)
	if len(results) != len(docs) {
		t.Fatalf("batch: %d results, want %d", len(results), len(docs))
	}
	sp, _ := docspanner.Compile(pattern, docspanner.Options{})
	for i, raw := range results {
		r := raw.(map[string]any)
		want := sp.Count([]byte(docs[i]))
		if r["doc"] != fmt.Sprintf("m%d", i) || r["count"] != float64(want) {
			t.Fatalf("batch result %d: %v, want count %d", i, r, want)
		}
	}

	code, _ = do(t, s, "POST", "/batch", `{"query": "q", "docs": []}`)
	mustStatus(t, code, 400, "empty batch")
	code, _ = do(t, s, "POST", "/batch", `{"query": "q", "docs": ["nosuch"]}`)
	mustStatus(t, code, 404, "batch unknown doc")
}

func TestWarmEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d?compress=1", strings.Repeat("abcab", 50))
	do(t, s, "PUT", "/queries/single", `{"src": ".*!x{ab}.*"}`)
	// A join that cannot fuse into a single scan: string-equality
	// selection keeps residual algebra in the plan.
	do(t, s, "PUT", "/queries/multi", `{"src": "seleq(x,y; join(.*!x{a(b|c)}.*; .*!y{ab}.*))"}`)

	code, _ := do(t, s, "POST", "/docs/d/warm?query=single&workers=2", "")
	mustStatus(t, code, 200, "warm single-scan")
	code, _ = do(t, s, "POST", "/docs/d/warm?query=multi", "")
	mustStatus(t, code, 422, "warm non-single-scan")
	code, _ = do(t, s, "POST", "/docs/nosuch/warm?query=single", "")
	mustStatus(t, code, 404, "warm unknown doc")
}

func TestTimeoutsAndLimiter(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	do(t, s, "PUT", "/docs/d", strings.Repeat("ab", 2000))
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	// A 1ns deadline expires before the first tuple: 504.
	code, body := do(t, s, "GET", "/count?query=q&doc=d&timeout=1ns", "")
	mustStatus(t, code, 504, "count with expired deadline")
	if !strings.Contains(body["error"].(string), "deadline") {
		t.Fatalf("timeout error: %v", body)
	}

	// Bad timeout values are a 400.
	code, _ = do(t, s, "GET", "/count?query=q&doc=d&timeout=banana", "")
	mustStatus(t, code, 400, "bad timeout")

	// With the single slot taken, a waiting request gives up at its
	// deadline with 503.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	code, _ = do(t, s, "GET", "/count?query=q&doc=d&timeout=50ms", "")
	mustStatus(t, code, 503, "limiter full")
}

// TestIntParamsRejectMalformed: a malformed or negative ?limit=, ?since=
// or ?workers= is a 400 naming the parameter, never a silent default; a
// huge ?workers= is clamped to GOMAXPROCS.
func TestIntParamsRejectMalformed(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d?compress=1", strings.Repeat("ab", 50))
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	code, _ := do(t, s, "PUT", "/docs/d/views/q", "")
	mustStatus(t, code, 201, "put view")

	for _, c := range []struct{ method, target, param string }{
		{"GET", "/stream?query=q&doc=d&limit=1O", "limit"},
		{"GET", "/stream?query=q&doc=d&limit=-1", "limit"},
		{"GET", "/docs/d/changes?query=q&since=abc", "since"},
		{"GET", "/docs/d/changes?query=q&since=-3", "since"},
		{"POST", "/docs/d/warm?query=q&workers=many", "workers"},
		{"POST", "/docs/d/warm?query=q&workers=-2", "workers"},
	} {
		code, body := do(t, s, c.method, c.target, "")
		mustStatus(t, code, 400, c.target)
		if msg, _ := body["error"].(string); !strings.Contains(msg, "bad "+c.param) {
			t.Fatalf("%s: error %q does not name ?%s=", c.target, msg, c.param)
		}
	}

	// limit=0 and an absent limit both stream everything.
	for _, target := range []string{"/stream?query=q&doc=d&limit=0", "/stream?query=q&doc=d"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		mustStatus(t, rec.Code, 200, target)
		if lines := strings.Count(rec.Body.String(), "\n"); lines != 51 {
			t.Fatalf("%s: %d lines, want 50 tuples and a summary", target, lines)
		}
	}
	code, _ = do(t, s, "POST", "/docs/d/warm?query=q&workers=1000000", "")
	mustStatus(t, code, 200, "warm with huge workers")
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d?compress=1", "abab")
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	do(t, s, "GET", "/eval?query=q&doc=d", "")
	do(t, s, "GET", "/stream?query=q&doc=d", "")

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	mustStatus(t, rec.Code, 200, "metrics")
	text := rec.Body.String()
	for _, want := range []string{
		"spannerd_matrix_cache_hits_total",
		"spannerd_matrix_cache_misses_total",
		"spannerd_matrix_cache_hit_rate",
		"spannerd_index_nodes ",
		"spannerd_index_forgotten_nodes_total ",
		`spannerd_tuples_total{query="q",kind="eval"}`,
		`spannerd_tuples_total{query="q",kind="stream"}`,
		`spannerd_query_duration_seconds_bucket{query="q",kind="eval",le="+Inf"}`,
		"spannerd_documents 1",
		"spannerd_queries 1",
		`spannerd_requests_total{handler="eval",code="200"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/varz", nil))
	mustStatus(t, rec.Code, 200, "varz")
	var varz map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &varz); err != nil {
		t.Fatalf("/varz not valid JSON: %v", err)
	}
	own, ok := varz["spannerd"].(map[string]any)
	if !ok {
		t.Fatalf("/varz has no spannerd section: %v", varz)
	}
	if _, ok := own["index_nodes"]; !ok {
		t.Errorf("varz spannerd section has no index_nodes: %v", own)
	}
	if _, ok := own["index_forgotten"]; !ok {
		t.Errorf("varz spannerd section has no index_forgotten: %v", own)
	}
	if own["docs"] != float64(1) || own["queries"] != float64(1) {
		t.Fatalf("varz spannerd section: %v", own)
	}
}

func TestHealthzAndFlush(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := do(t, s, "GET", "/healthz", "")
	mustStatus(t, code, 200, "healthz")
	if body["status"] != "ok" {
		t.Fatalf("healthz: %v", body)
	}

	do(t, s, "PUT", "/docs/d?compress=1", "abab")
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	do(t, s, "GET", "/eval?query=q&doc=d", "")
	code, _ = do(t, s, "POST", "/admin/flush-caches", "")
	mustStatus(t, code, 200, "flush")
	// Evaluation still works after the flush (the tables refill).
	code, body = do(t, s, "GET", "/count?query=q&doc=d", "")
	mustStatus(t, code, 200, "count after flush")
	if body["count"] != float64(2) {
		t.Fatalf("count after flush: %v", body)
	}
}

func TestContextCancellationMidStream(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d", strings.Repeat("ab", 3000))
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/stream?query=q&doc=d&content=0", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	// Cancel from inside the stream: after a few flushes the client goes
	// away; the handler must terminate and mark the summary line as
	// not-done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(&cancelAfterFlushes{ResponseRecorder: rec, n: 3, cancel: cancel}, req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after cancellation")
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if summary["done"] != false {
		t.Fatalf("cancelled stream should report done=false: %v", summary)
	}
	if n := summary["count"].(float64); n >= 3000 {
		t.Fatalf("cancelled stream delivered the whole result (%v tuples)", n)
	}
}

type cancelAfterFlushes struct {
	*httptest.ResponseRecorder
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterFlushes) Flush() {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	c.ResponseRecorder.Flush()
}

// TestQueryRegistrationPlanLint pins that the plan-level passes (SP009,
// SP010) run at registration: their warnings land in the diagnostics
// payload, participate in the fail_on threshold, and surface in the
// EXPLAIN output.
func TestQueryRegistrationPlanLint(t *testing.T) {
	s := newTestServer(t, Config{})

	diagCodes := func(body map[string]any) []string {
		raw, _ := body["diagnostics"].([]any)
		var out []string
		for _, d := range raw {
			out = append(out, d.(map[string]any)["code"].(string))
		}
		return out
	}
	hasCode := func(codes []string, want string) bool {
		for _, c := range codes {
			if c == want {
				return true
			}
		}
		return false
	}

	// A ~70-state NFA whose DFA blows past a 200-state gate: SP009.
	blowup := "(a|b)*a" + strings.Repeat("(a|b)", 10)

	// With fail_on=warning the SP009 warning rejects the registration.
	spec := fmt.Sprintf(`{"src": %q, "fail_on": "warning", "plan": {"max_determinize_states": 200}}`, blowup)
	code, body := do(t, s, "PUT", "/queries/blowup", spec)
	mustStatus(t, code, 422, "register blowup with fail_on=warning")
	if !hasCode(diagCodes(body), "SP009") {
		t.Fatalf("422 diagnostics should include SP009: %v", body)
	}

	// Under the default threshold (error) a warning registers fine, with
	// the diagnostic attached to the query info and visible in EXPLAIN.
	spec = fmt.Sprintf(`{"src": %q, "plan": {"max_determinize_states": 200}}`, blowup)
	code, body = do(t, s, "PUT", "/queries/blowup", spec)
	mustStatus(t, code, 200, "register blowup with default threshold")
	if !hasCode(diagCodes(body), "SP009") {
		t.Fatalf("query info should carry the SP009 diagnostic: %v", body)
	}
	code, body = do(t, s, "GET", "/queries/blowup/explain", "")
	mustStatus(t, code, 200, "explain blowup")
	if plan := body["plan"].(string); !strings.Contains(plan, "warnings:") || !strings.Contains(plan, "SP009") {
		t.Fatalf("explain should surface the SP009 warning:\n%s", plan)
	}

	// The same query under the default gate (4096) is clean.
	spec = fmt.Sprintf(`{"src": %q}`, blowup)
	code, body = do(t, s, "PUT", "/queries/fine", spec)
	mustStatus(t, code, 200, "register under default gate")
	if hasCode(diagCodes(body), "SP009") {
		t.Fatalf("default gate should not produce SP009: %v", body)
	}

	// A disjoint-schema join that survives rewriting (fusion disabled
	// via max_fused_states=1) reports SP010.
	spec = `{"src": "join(!x{a+}b+; a+!y{b+})", "plan": {"max_fused_states": 1}}`
	code, body = do(t, s, "PUT", "/queries/cross", spec)
	mustStatus(t, code, 200, "register cross join")
	if !hasCode(diagCodes(body), "SP010") {
		t.Fatalf("surviving cross-product join should report SP010: %v", body)
	}

	// The identical join under the default pipeline fuses away: no
	// SP010 (the expression-level SP003 warning remains).
	spec = `{"src": "join(!x{a+}b+; a+!y{b+})"}`
	code, body = do(t, s, "PUT", "/queries/fused", spec)
	mustStatus(t, code, 200, "register fused join")
	codes := diagCodes(body)
	if hasCode(codes, "SP010") {
		t.Fatalf("fused join should not report SP010: %v", body)
	}
	if !hasCode(codes, "SP003") {
		t.Fatalf("expression-level SP003 should remain: %v", body)
	}
}
