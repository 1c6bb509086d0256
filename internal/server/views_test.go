package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- satellite: structured 422 diagnostics per CDE failure shape ---

func editDiag(t *testing.T, body map[string]any) map[string]any {
	t.Helper()
	ds, ok := body["diagnostics"].([]any)
	if !ok || len(ds) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", body)
	}
	return ds[0].(map[string]any)
}

func TestEditRejectsParseErrorWithDiagnostic(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/a", "abc")

	code, body := do(t, s, "POST", "/docs/x/edit", `{"expr": "nonsense("}`)
	mustStatus(t, code, 422, "parse failure")
	d := editDiag(t, body)
	if d["code"] != "CDE001" {
		t.Fatalf("parse diag: %v", d)
	}
	if !strings.HasPrefix(d["pos"].(string), "offset ") {
		t.Fatalf("parse diag pos should carry the offset: %v", d)
	}
	if d["hint"] == "" {
		t.Fatalf("parse diag lacks hint: %v", d)
	}
}

func TestEditRejectsUnknownDocWithDiagnostic(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/a", "abc")

	code, body := do(t, s, "POST", "/docs/x/edit", `{"expr": "concat(a, ghost)"}`)
	mustStatus(t, code, 422, "unknown doc")
	d := editDiag(t, body)
	if d["code"] != "CDE002" {
		t.Fatalf("unknown-doc diag: %v", d)
	}
	if !strings.Contains(d["message"].(string), "ghost") {
		t.Fatalf("unknown-doc diag message: %v", d)
	}
}

func TestEditRejectsOutOfRangeWithDiagnostic(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/a", "abc")

	for _, expr := range []string{
		"extract(a, 1, 99)",
		"extract(a, 0, 2)",
		"delete(a, 3, 1)",
		"insert(a, a, 99)",
		"copy(a, 1, 2, 99)",
	} {
		code, body := do(t, s, "POST", "/docs/x/edit", fmt.Sprintf(`{"expr": %q}`, expr))
		mustStatus(t, code, 422, expr)
		d := editDiag(t, body)
		if d["code"] != "CDE003" {
			t.Fatalf("%s: diag = %v", expr, d)
		}
		// Pos names the offending operation so nested failures are
		// locatable.
		if d["pos"] == "" || d["pos"] == "$" {
			t.Fatalf("%s: diag pos should name the operation: %v", expr, d)
		}
	}
	// Nothing was stored by any failed edit.
	code, _ := do(t, s, "GET", "/docs/x", "")
	mustStatus(t, code, 404, "doc x after failed edits")
}

// --- live views ---

func setupViewServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newTestServer(t, cfg)
	t.Cleanup(s.Close)
	code, _ := do(t, s, "PUT", "/docs/d?compress=1", "abba")
	mustStatus(t, code, 200, "put d")
	code, _ = do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*", "alphabet": "ab"}`)
	mustStatus(t, code, 200, "put q")
	return s
}

func TestViewLifecycle(t *testing.T) {
	s := setupViewServer(t, Config{})

	code, body := do(t, s, "PUT", "/docs/d/views/q", "")
	mustStatus(t, code, 201, "create view")
	if body["created"] != true || body["version"] != float64(1) || body["count"] != float64(1) {
		t.Fatalf("create view: %v", body)
	}
	if body["materialized"] != true {
		t.Fatalf("small view not materialized: %v", body)
	}

	// Idempotent re-put.
	code, body = do(t, s, "PUT", "/docs/d/views/q", "")
	mustStatus(t, code, 200, "re-put view")
	if body["created"] != false {
		t.Fatalf("re-put created a new view: %v", body)
	}

	// GET returns the same stamped result, with tuples on request.
	code, body = do(t, s, "GET", "/docs/d/views/q?tuples=1", "")
	mustStatus(t, code, 200, "get view")
	if body["version"] != float64(1) {
		t.Fatalf("view version: %v", body)
	}
	tuples := body["tuples"].([]any)
	if len(tuples) != 1 {
		t.Fatalf("view tuples: %v", tuples)
	}
	// At the current version span contents are included.
	x := tuples[0].(map[string]any)["x"].(map[string]any)
	if x["content"] != "ab" {
		t.Fatalf("tuple content: %v", x)
	}

	// An edit refreshes the view synchronously (default mode): version
	// advances with the document, the count tracks the new text.
	code, _ = do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, d)"}`)
	mustStatus(t, code, 200, "edit d")
	code, body = do(t, s, "GET", "/docs/d/views/q", "")
	mustStatus(t, code, 200, "get view after edit")
	// "abbaabba" has "ab" at 0-based offsets 0 and 4.
	if body["version"] != float64(2) || body["count"] != float64(2) {
		t.Fatalf("view after edit: %v", body)
	}

	// A refresh computes tables once the document is longer than the
	// index's blocks: pad d to a few hundred bytes.
	code, _ = do(t, s, "PUT", "/docs/pad?compress=1", strings.Repeat("a", 256))
	mustStatus(t, code, 200, "put pad")
	code, _ = do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, pad)"}`)
	mustStatus(t, code, 200, "pad d")
	code, body = do(t, s, "GET", "/docs/d/views/q", "")
	mustStatus(t, code, 200, "get view after padding")
	if body["version"] != float64(3) || body["count"] != float64(2) {
		t.Fatalf("view after padding: %v", body)
	}
	if body["recomputed_nodes"] == float64(0) {
		t.Fatalf("refresh did no work: %v", body)
	}

	// Listings.
	code, body = do(t, s, "GET", "/views", "")
	mustStatus(t, code, 200, "list views")
	if len(body["views"].([]any)) != 1 {
		t.Fatalf("views list: %v", body)
	}
	code, body = do(t, s, "GET", "/docs/d/views", "")
	mustStatus(t, code, 200, "doc views")
	if len(body["views"].([]any)) != 1 {
		t.Fatalf("doc views list: %v", body)
	}

	// Delete.
	code, _ = do(t, s, "DELETE", "/docs/d/views/q", "")
	mustStatus(t, code, 200, "delete view")
	code, _ = do(t, s, "GET", "/docs/d/views/q", "")
	mustStatus(t, code, 404, "get deleted view")
}

func TestViewRequiresSingleScanPlan(t *testing.T) {
	s := setupViewServer(t, Config{})
	// A join that does not fuse into one regular scan cannot be viewed.
	code, _ := do(t, s, "PUT", "/queries/alg",
		`{"src": "seleq(x, y; .*!x{a+}.*!y{a+}.*)", "alphabet": "ab"}`)
	mustStatus(t, code, 200, "register algebra query")
	code, body := do(t, s, "PUT", "/docs/d/views/alg", "")
	mustStatus(t, code, 422, "view over non-fusable plan")
	if body["error"] == "" {
		t.Fatalf("no error message: %v", body)
	}
}

func TestViewDroppedWithDocAndQuery(t *testing.T) {
	s := setupViewServer(t, Config{})
	do(t, s, "PUT", "/docs/d/views/q", "")

	// Re-registering the query drops its views (the definition may have
	// changed).
	code, _ := do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ba}.*", "alphabet": "ab"}`)
	mustStatus(t, code, 200, "re-register q")
	code, _ = do(t, s, "GET", "/docs/d/views/q", "")
	mustStatus(t, code, 404, "view after query re-register")

	do(t, s, "PUT", "/docs/d/views/q", "")
	code, body := do(t, s, "DELETE", "/queries/q", "")
	mustStatus(t, code, 200, "delete q")
	if body["views_dropped"] != float64(1) {
		t.Fatalf("delete q: %v", body)
	}

	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*", "alphabet": "ab"}`)
	do(t, s, "PUT", "/docs/d/views/q", "")
	code, body = do(t, s, "DELETE", "/docs/d", "")
	mustStatus(t, code, 200, "delete d")
	if body["views_dropped"] != float64(1) {
		t.Fatalf("delete d: %v", body)
	}
	code, _ = do(t, s, "GET", "/views", "")
	mustStatus(t, code, 200, "views after drops")
}

// decodeChanges parses a /changes NDJSON body into op lines + summary.
func decodeChanges(t *testing.T, body string) (ops []map[string]any, summary map[string]any) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, done := line["done"]; done {
			summary = line
		} else {
			ops = append(ops, line)
		}
	}
	return ops, summary
}

func TestDocChanges(t *testing.T) {
	s := setupViewServer(t, Config{})
	do(t, s, "PUT", "/docs/d/views/q", "")

	// v1 "abba" has one match; v2 "abbaab" has two ("ab" at 1 and 5).
	code, _ := do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, extract(d,1,2))"}`)
	mustStatus(t, code, 200, "edit d")

	req := httptest.NewRequest("GET", "/docs/d/changes?query=q&since=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	mustStatus(t, rec.Code, 200, "changes")
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("changes content-type = %q", ct)
	}
	ops, summary := decodeChanges(t, rec.Body.String())
	if summary == nil || summary["from"] != float64(1) || summary["to"] != float64(2) {
		t.Fatalf("changes summary: %v", summary)
	}
	if summary["added"] != float64(1) || summary["removed"] != float64(0) {
		t.Fatalf("changes summary counts: %v", summary)
	}
	if len(ops) != 1 || ops[0]["op"] != "add" {
		t.Fatalf("changes ops: %v", ops)
	}
	tuple := ops[0]["tuple"].(map[string]any)["x"].(map[string]any)
	if tuple["begin"] != float64(5) || tuple["end"] != float64(7) {
		t.Fatalf("added tuple: %v", tuple)
	}

	// Error taxonomy.
	code, _ = do(t, s, "GET", "/docs/d/changes?query=q&since=99", "")
	mustStatus(t, code, 410, "changes since unknown version")
	code, _ = do(t, s, "GET", "/docs/d/changes?query=nosuch&since=1", "")
	mustStatus(t, code, 404, "changes for unknown view")
	code, _ = do(t, s, "GET", "/docs/d/changes?query=q", "")
	mustStatus(t, code, 400, "changes without since")
}

func TestDocChangesWithRemovals(t *testing.T) {
	s := setupViewServer(t, Config{})
	do(t, s, "PUT", "/docs/d/views/q", "")
	// Delete the "ab" at 1..2: "abba" -> "ba"; the single match vanishes.
	code, _ := do(t, s, "POST", "/docs/d/edit", `{"expr": "delete(d, 1, 2)"}`)
	mustStatus(t, code, 200, "edit d")

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/docs/d/changes?query=q&since=1", nil))
	mustStatus(t, rec.Code, 200, "changes")
	ops, summary := decodeChanges(t, rec.Body.String())
	if summary["added"] != float64(0) || summary["removed"] != float64(1) {
		t.Fatalf("summary: %v", summary)
	}
	if len(ops) != 1 || ops[0]["op"] != "remove" {
		t.Fatalf("ops: %v", ops)
	}
}

func TestViewAsyncRefreshConverges(t *testing.T) {
	s := setupViewServer(t, Config{ViewRefresh: "async"})
	do(t, s, "PUT", "/docs/d/views/q", "")

	code, _ := do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, d)"}`)
	mustStatus(t, code, 200, "edit d")

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := do(t, s, "GET", "/docs/d/views/q", "")
		if body["version"] == float64(2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async view never converged: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestViewMetricsExposed(t *testing.T) {
	s := setupViewServer(t, Config{})
	do(t, s, "PUT", "/docs/d/views/q", "")
	do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, d)"}`)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"spannerd_views 1",
		"spannerd_view_refreshes_total 2",
		`spannerd_view_refresh_duration_seconds_count{doc="d",query="q"} 2`,
		"spannerd_warm_recomputed_nodes_total",
		"spannerd_warm_memo_reuse_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestViewConcurrentEditsStreamsAndReads is the race certification:
// concurrent CDE edits, streaming queries, view reads, and /changes
// requests must never observe torn state, and the view version must
// only move forward.
func TestViewConcurrentEditsStreamsAndReads(t *testing.T) {
	s := setupViewServer(t, Config{})
	do(t, s, "PUT", "/docs/d/views/q", "")

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const edits = 24

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < edits; i++ {
			code, body := do(t, s, "POST", "/docs/d/edit", `{"expr": "concat(d, extract(d,1,2))"}`)
			if code != 200 {
				errs <- fmt.Errorf("edit %d: status %d (%v)", i, code, body)
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for i := 0; i < 40; i++ {
				code, body := do(t, s, "GET", "/docs/d/views/q", "")
				if code != 200 {
					errs <- fmt.Errorf("view read: status %d", code)
					return
				}
				v := body["version"].(float64)
				if v < last {
					errs <- fmt.Errorf("view version went backwards: %v after %v", v, last)
					return
				}
				last = v
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/stream?query=q&doc=d", nil))
			if rec.Code != 200 {
				errs <- fmt.Errorf("stream: status %d", rec.Code)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/docs/d/changes?query=q&since=1", nil))
			switch rec.Code {
			case 200, 410:
				// 410 once version 1 leaves the history ring.
			default:
				errs <- fmt.Errorf("changes: status %d body %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the view converges on the final version and
	// agrees with a fresh evaluation.
	_, body := do(t, s, "GET", "/docs/d/views/q", "")
	if body["version"] != float64(edits+1) {
		t.Fatalf("final view version: %v", body)
	}
	_, count := do(t, s, "GET", "/count?query=q&doc=d", "")
	if body["count"] != count["count"] {
		t.Fatalf("view count %v != fresh count %v", body["count"], count["count"])
	}
}
