package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"docspanner/internal/cluster"
)

// TestBatchObservesDeadlineInsideADocument: a one-document batch over a
// Θ(n²)-output query must stop at its ?timeout=, not run the document
// to completion and answer 200 after the deadline (the worker pool used
// to check the context only between documents).
func TestBatchObservesDeadlineInsideADocument(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d", strings.Repeat("a", 2000))
	code, _ := do(t, s, "PUT", "/queries/quad", `{"src": ".*!x{a+}.*"}`)
	mustStatus(t, code, 200, "register quadratic query")

	start := time.Now()
	code, body := do(t, s, "POST", "/batch?timeout=30ms", `{"query": "quad", "docs": ["d"], "content": false}`)
	elapsed := time.Since(start)
	mustStatus(t, code, 504, "one-document batch past its deadline")
	if !strings.Contains(fmt.Sprint(body["error"]), "deadline") {
		t.Fatalf("timeout error: %v", body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("batch noticed its 30ms deadline only after %v", elapsed)
	}
}

// TestEvalObservesDeadlineInsideAMaterializingJoin: ?timeout= reaches the
// operators of a plan with residual algebra and the search of a
// refl-spanner scan. The join is the unselected cross product of two
// 4,000-tuple scans — 16 M rows, over a second of work, that used to be
// built in full before the deadline was looked at. The refl scan (the
// refl rewrite of a selection) compares every span of at least 20 letters
// of a random text with every later span and matches none: seconds of
// search without a tuple, that used to run to its end.
func TestEvalObservesDeadlineInsideAMaterializingJoin(t *testing.T) {
	s := newTestServer(t, Config{})
	doc := make([]byte, 4000)
	for i := range doc {
		doc[i] = byte('a' + i*7%26)
	}
	do(t, s, "PUT", "/docs/d", string(doc))
	rng := rand.New(rand.NewSource(1))
	ab := make([]byte, 200)
	for i := range ab {
		ab[i] = "ab"[rng.Intn(2)]
	}
	do(t, s, "PUT", "/docs/ab", string(ab))
	for _, c := range []struct{ query, spec, doc, backend string }{
		{"cross", `{"src": "join(.*!x{[a-z]}.*; .*!y{[a-z]}.*)", "fail_on": "never", "plan": {"disable_rewrites": true}}`, "d", "materialize"},
		{"refl", `{"src": "seleq(x,y; (a|b)*!x{(a|b){20,}}(a|b)*!y{(a|b)+}(a|b)*)", "fail_on": "never", "plan": {"refl_rewrite": true}}`, "ab", "refl-search"},
	} {
		code, _ := do(t, s, "PUT", "/queries/"+c.query, c.spec)
		mustStatus(t, code, 200, "register "+c.query)
		code, body := do(t, s, "GET", "/queries/"+c.query+"/explain", "")
		mustStatus(t, code, 200, "explain "+c.query)
		if !strings.Contains(fmt.Sprint(body["plan"]), c.backend) {
			t.Fatalf("%s: no %s in the plan: %v", c.query, c.backend, body["plan"])
		}

		const deadline = 20 * time.Millisecond
		// The bound is on wall time: a stall of the host may cost one attempt.
		var elapsed time.Duration
		for attempt := 0; attempt < 3; attempt++ {
			start := time.Now()
			code, body := do(t, s, "GET", "/eval?query="+c.query+"&doc="+c.doc+"&timeout=20ms", "")
			elapsed = time.Since(start)
			mustStatus(t, code, 504, c.query+" past its deadline")
			if !strings.Contains(fmt.Sprint(body["error"]), "deadline") {
				t.Fatalf("%s: timeout error: %v", c.query, body)
			}
			if elapsed < 10*deadline {
				break
			}
		}
		if elapsed >= 10*deadline {
			t.Fatalf("%s: /eval noticed its %v deadline only after %v", c.query, deadline, elapsed)
		}
	}
}

// TestEvalListsAReflTupleOnce: /eval of a refl-spanner scan lists every
// tuple once, though two runs of the automaton — one per branch of
// (b|b) — reach each assignment; the result equals the core plan's.
func TestEvalListsAReflTupleOnce(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d", "aabaab")
	const src = `seleq(x,y; (a|b)*!x{a+}(b|b)!y{a+}(a|b)*)`
	tuples := map[string][]any{}
	for name, plan := range map[string]string{"refl": `{"refl_rewrite": true}`, "core": `{}`} {
		code, _ := do(t, s, "PUT", "/queries/"+name, `{"src": "`+src+`", "fail_on": "never", "plan": `+plan+`}`)
		mustStatus(t, code, 200, "register "+name)
		code, body := do(t, s, "GET", "/eval?query="+name+"&doc=d", "")
		mustStatus(t, code, 200, "eval "+name)
		tuples[name], _ = body["tuples"].([]any)
	}
	if _, body := do(t, s, "GET", "/queries/refl/explain", ""); !strings.Contains(fmt.Sprint(body["plan"]), "refl-search") {
		t.Fatalf("no refl scan in the plan: %v", body["plan"])
	}
	refl, core := fmt.Sprint(tuples["refl"]), fmt.Sprint(tuples["core"])
	if len(tuples["refl"]) != 2 || refl != core {
		t.Fatalf("refl /eval lists %d tuples %s, want the core plan's 2: %s", len(tuples["refl"]), refl, core)
	}
}

// TestRenderErrorCountsA504Once: however a deadline reaches the
// renderer — as a bare context error, or already mapped to a 504 by the
// coordinator's clusterErr — the timeout counter moves by exactly one.
func TestRenderErrorCountsA504Once(t *testing.T) {
	p := &pipeline{metrics: newMetrics(), timeoutMsg: "cluster fan-out deadline exceeded"}
	for name, err := range map[string]error{
		"bare context error": context.DeadlineExceeded,
		"wrapped context":    fmt.Errorf("fan-out: %w", context.DeadlineExceeded),
		"clusterErr-mapped":  clusterErr(context.DeadlineExceeded),
	} {
		if st := cluster.StatusFor(context.DeadlineExceeded); st != 504 {
			t.Fatalf("cluster.StatusFor(deadline) = %d, the test assumes 504", st)
		}
		before := p.metrics.timeouts.Load()
		rec := httptest.NewRecorder()
		p.renderError(&statusWriter{ResponseWriter: rec}, err)
		if rec.Code != 504 {
			t.Fatalf("%s: status %d, want 504", name, rec.Code)
		}
		if got := p.metrics.timeouts.Load() - before; got != 1 {
			t.Fatalf("%s: timeouts counter moved by %d, want 1", name, got)
		}
	}
}

// TestRolesShareTheRouteTable: every row except GET /cluster is mounted
// on both roles under the same pattern, and what the table does not
// hold is refused identically by both.
func TestRolesShareTheRouteTable(t *testing.T) {
	tc := newTestCluster(t, 1, CoordinatorConfig{})
	worker, coord := tc.workers[0].srv, tc.coord

	fill := strings.NewReplacer("{name}", "n", "{query}", "q")
	for _, rt := range routes {
		method, path, _ := strings.Cut(fill.Replace(rt.pattern), " ")
		req := httptest.NewRequest(method, path, nil)
		if _, got := coord.mux.Handler(req); got != rt.pattern {
			t.Errorf("coordinator routes %s %s to %q, want %q", method, path, got, rt.pattern)
		}
		want := rt.pattern
		if rt.pattern == "GET /cluster" {
			want = ""
		} else if rt.worker == nil {
			t.Errorf("%s has no worker handler; GET /cluster is the only coordinator-only row", rt.pattern)
		}
		if _, got := worker.mux.Handler(req); got != want {
			t.Errorf("worker routes %s %s to %q, want %q", method, path, got, want)
		}
	}

	for _, target := range []string{"GET /nosuch", "GET /docs/a/b/c/d", "DELETE /eval", "PATCH /docs/n"} {
		method, path, _ := strings.Cut(target, " ")
		var recs [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{worker, coord} {
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], httptest.NewRequest(method, path, nil))
		}
		w, c := recs[0], recs[1]
		if w.Code < 400 || w.Code != c.Code ||
			w.Header().Get("Content-Type") != c.Header().Get("Content-Type") ||
			w.Header().Get("Allow") != c.Header().Get("Allow") ||
			w.Body.String() != c.Body.String() {
			t.Errorf("%s: worker answered %d %q %q, coordinator %d %q %q", target,
				w.Code, w.Header().Get("Content-Type"), w.Body.String(),
				c.Code, c.Header().Get("Content-Type"), c.Body.String())
		}
	}
}

// TestCompressedSourceSharesTheSnapshotText: the Source of a compressed
// document hands operators the snapshot's cached text instead of
// decompressing per evaluation.
func TestCompressedSourceSharesTheSnapshotText(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/d?compress=1", strings.Repeat("abab", 64))
	d, err := s.store.get("d")
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.source().Bytes(), d.source().Bytes()
	if &a[0] != &b[0] || &a[0] != &d.bytes()[0] {
		t.Fatal("two evaluations over one compressed snapshot decompressed separately")
	}
}
