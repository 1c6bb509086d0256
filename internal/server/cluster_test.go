package server

// In-process cluster harness: real workers on real TCP listeners (so a
// worker can be killed abruptly and restarted on the same port, which
// httptest.Server cannot do) fronted by a real Coordinator. The
// worker-failure tests drive the whole 502/503/504 taxonomy: kill a
// worker mid-stream and mid-batch, watch the breaker and prober react,
// and watch the shard come back after a restart.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

type testWorker struct {
	srv  *Server
	hs   *http.Server
	addr string // fixed across restarts
	url  string
}

func startTestWorker(t *testing.T, srv *Server) *testWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := &testWorker{srv: srv, addr: ln.Addr().String()}
	w.url = "http://" + w.addr
	w.serve(ln)
	return w
}

func (w *testWorker) serve(ln net.Listener) {
	hs := &http.Server{Handler: w.srv}
	w.hs = hs
	go func() { _ = hs.Serve(ln) }()
}

// kill closes the listener and every active connection — the abrupt
// death of a worker process, mid-response included.
func (w *testWorker) kill() { _ = w.hs.Close() }

// restart rebinds the same address with the same Server (its in-memory
// state plays the role of the recovered WAL state).
func (w *testWorker) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", w.addr)
		if err == nil {
			w.serve(ln)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("restart: could not rebind %s: %v", w.addr, err)
}

type testCluster struct {
	workers []*testWorker
	coord   *Coordinator
	front   *httptest.Server
}

func newTestCluster(t *testing.T, n int, ccfg CoordinatorConfig) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := startTestWorker(t, newTestServer(t, Config{}))
		tc.workers = append(tc.workers, w)
		urls[i] = w.url
	}
	ccfg.Workers = urls
	if ccfg.ProbeInterval == 0 {
		ccfg.ProbeInterval = 25 * time.Millisecond
	}
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord)
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
		for _, w := range tc.workers {
			w.kill()
			w.srv.Close()
		}
	})
	return tc
}

// request runs one real HTTP request through the coordinator.
func (tc *testCluster) request(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, tc.front.URL+path, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	return resp, b
}

func (tc *testCluster) json(t *testing.T, method, path, body string) (int, map[string]any) {
	t.Helper()
	resp, b := tc.request(t, method, path, body)
	var out map[string]any
	if len(b) > 0 && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, b, err)
		}
	}
	return resp.StatusCode, out
}

// docOwnedBy finds a document name the ring places on the given worker.
func (tc *testCluster) docOwnedBy(t *testing.T, worker int, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if tc.coord.Ring().Owner(name) == worker {
			return name
		}
	}
	t.Fatalf("no name with prefix %q hashes to worker %d", prefix, worker)
	return ""
}

// waitWorkersUp polls the prober's view until the expected number of
// workers are routable.
func (tc *testCluster) waitWorkersUp(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tc.coord.Ring().UpCount() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("workers up = %d, want %d", tc.coord.Ring().UpCount(), want)
}

func TestClusterRoutingAndPlacement(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	d0 := tc.docOwnedBy(t, 0, "alpha")
	d1 := tc.docOwnedBy(t, 1, "beta")

	code, _ := tc.json(t, "PUT", "/docs/"+d0, "abab")
	mustStatus(t, code, 200, "put d0")
	code, _ = tc.json(t, "PUT", "/docs/"+d1, "ababab")
	mustStatus(t, code, 200, "put d1")

	// Each document landed only on its owning shard.
	if n := tc.workers[0].srv.store.len(); n != 1 {
		t.Fatalf("worker 0 has %d docs, want 1", n)
	}
	if n := tc.workers[1].srv.store.len(); n != 1 {
		t.Fatalf("worker 1 has %d docs, want 1", n)
	}

	// Query registration fans out to every shard.
	code, body := tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	mustStatus(t, code, 200, "put query")
	if body["workers"] != float64(2) {
		t.Fatalf("query put workers = %v, want 2", body["workers"])
	}
	for i, w := range tc.workers {
		if n := w.srv.queries.len(); n != 1 {
			t.Fatalf("worker %d has %d queries, want 1", i, n)
		}
	}

	// Evaluation routes to the owner and carries the doc's version.
	code, body = tc.json(t, "GET", "/eval?query=q&doc="+d1, "")
	mustStatus(t, code, 200, "eval d1")
	if body["count"] != float64(3) || body["version"] != float64(1) {
		t.Fatalf("eval d1: %v", body)
	}

	// The proxied response names the shard that served it.
	resp, _ := tc.request(t, "GET", "/docs/"+d0, "")
	if got := resp.Header.Get("X-Worker"); got != tc.workers[0].url {
		t.Fatalf("X-Worker = %q, want %q", got, tc.workers[0].url)
	}

	// The merged listing covers both shards and names each owner.
	code, body = tc.json(t, "GET", "/docs", "")
	mustStatus(t, code, 200, "docs list")
	docs := body["docs"].([]any)
	if len(docs) != 2 {
		t.Fatalf("merged list: %d docs, want 2", len(docs))
	}
	for _, d := range docs {
		m := d.(map[string]any)
		wantWorker := tc.workers[tc.coord.Ring().Owner(m["name"].(string))].url
		if m["worker"] != wantWorker {
			t.Fatalf("doc %v listed on %v, want %v", m["name"], m["worker"], wantWorker)
		}
	}

	// /cluster?key= exposes the placement decision.
	code, body = tc.json(t, "GET", "/cluster?key="+d1, "")
	mustStatus(t, code, 200, "cluster key")
	if body["worker"] != tc.workers[1].url {
		t.Fatalf("cluster key: %v", body)
	}

	// Views route to the document's owner.
	code, _ = tc.json(t, "PUT", "/docs/"+d0+"/views/q", "")
	mustStatus(t, code, 201, "view put")
	if n := tc.workers[0].srv.views.Len(); n != 1 {
		t.Fatalf("worker 0 has %d views, want 1", n)
	}
	code, body = tc.json(t, "GET", "/views", "")
	mustStatus(t, code, 200, "views list")
	if vs := body["views"].([]any); len(vs) != 1 {
		t.Fatalf("merged views: %v", body)
	}
}

func TestClusterBatchScatterOrder(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	code, _ := tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	mustStatus(t, code, 200, "put query")

	// Interleave owners in the request order on purpose.
	names := []string{
		tc.docOwnedBy(t, 0, "b0"), tc.docOwnedBy(t, 1, "b1"),
		tc.docOwnedBy(t, 0, "b2"), tc.docOwnedBy(t, 1, "b3"),
		tc.docOwnedBy(t, 1, "b4"), tc.docOwnedBy(t, 0, "b5"),
	}
	for i, n := range names {
		code, _ := tc.json(t, "PUT", "/docs/"+n, strings.Repeat("ab", i+1))
		mustStatus(t, code, 200, "put "+n)
	}

	body, _ := json.Marshal(map[string]any{"query": "q", "docs": names})
	code, out := tc.json(t, "POST", "/batch", string(body))
	mustStatus(t, code, 200, "batch")
	if out["partial"] != nil {
		t.Fatalf("batch unexpectedly partial: %v", out)
	}
	results := out["results"].([]any)
	if len(results) != len(names) {
		t.Fatalf("batch results = %d, want %d", len(results), len(names))
	}
	total := 0.0
	for i, res := range results {
		m := res.(map[string]any)
		if m["doc"] != names[i] {
			t.Fatalf("result %d is %v, want %v (request order lost)", i, m["doc"], names[i])
		}
		if want := float64(i + 1); m["count"] != want {
			t.Fatalf("result %d count = %v, want %v", i, m["count"], want)
		}
		wantWorker := tc.workers[tc.coord.Ring().Owner(names[i])].url
		if m["worker"] != wantWorker {
			t.Fatalf("result %d worker = %v, want %v", i, m["worker"], wantWorker)
		}
		total += m["count"].(float64)
	}
	if out["count"] != total {
		t.Fatalf("batch count = %v, want %v", out["count"], total)
	}

	// Unknown query is one clean 404, not N shard errors.
	body, _ = json.Marshal(map[string]any{"query": "nope", "docs": names[:1]})
	code, _ = tc.json(t, "POST", "/batch", string(body))
	mustStatus(t, code, 404, "batch unknown query")
}

// readMerged consumes a merged NDJSON stream, returning per-doc frame
// counts and the parsed summary trailer.
func readMerged(t *testing.T, r io.Reader, onFrame func(doc string)) (map[string]int, map[string]any) {
	t.Helper()
	counts := map[string]int{}
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if last != nil {
			var frame struct {
				Doc   string          `json:"doc"`
				Tuple json.RawMessage `json:"tuple"`
			}
			if err := json.Unmarshal(last, &frame); err != nil || frame.Doc == "" {
				t.Fatalf("bad tuple frame %q", last)
			}
			counts[frame.Doc]++
			if onFrame != nil {
				onFrame(frame.Doc)
			}
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading merged stream: %v", err)
	}
	var summary map[string]any
	if err := json.Unmarshal(last, &summary); err != nil || summary["done"] == nil {
		t.Fatalf("missing summary trailer, last line %q", last)
	}
	return counts, summary
}

func TestClusterMergedStream(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	d0 := tc.docOwnedBy(t, 0, "ms0")
	d1 := tc.docOwnedBy(t, 1, "ms1")
	tc.json(t, "PUT", "/docs/"+d0, strings.Repeat("ab", 100))
	tc.json(t, "PUT", "/docs/"+d1, strings.Repeat("ab", 150))

	resp, err := http.Get(tc.front.URL + "/stream?query=q&docs=" + d0 + "," + d1)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	mustStatus(t, resp.StatusCode, 200, "merged stream")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	counts, summary := readMerged(t, resp.Body, nil)
	if counts[d0] != 100 || counts[d1] != 150 {
		t.Fatalf("frame counts = %v", counts)
	}
	if summary["done"] != true || summary["count"] != float64(250) || summary["docs"] != float64(2) {
		t.Fatalf("summary = %v", summary)
	}
	results := summary["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("summary results = %v", results)
	}
	for _, res := range results {
		m := res.(map[string]any)
		if m["version"] != float64(1) {
			t.Fatalf("shard result missing version: %v", m)
		}
	}

	// docs=* resolves the shard listings.
	resp2, err := http.Get(tc.front.URL + "/stream?query=q&docs=*")
	if err != nil {
		t.Fatalf("stream *: %v", err)
	}
	defer resp2.Body.Close()
	_, summary = readMerged(t, resp2.Body, nil)
	if summary["count"] != float64(250) {
		t.Fatalf("docs=* summary = %v", summary)
	}

	// A global limit truncates the merged stream, not each shard.
	resp3, err := http.Get(tc.front.URL + "/stream?query=q&docs=" + d0 + "," + d1 + "&limit=7")
	if err != nil {
		t.Fatalf("stream limit: %v", err)
	}
	defer resp3.Body.Close()
	counts, summary = readMerged(t, resp3.Body, nil)
	if got := counts[d0] + counts[d1]; got != 7 {
		t.Fatalf("limited frames = %d, want 7", got)
	}
	if summary["done"] != true || summary["count"] != float64(7) {
		t.Fatalf("limited summary = %v", summary)
	}
}

// TestClusterRejectsMalformedIntParams: the coordinator answers a
// malformed or negative ?limit= on a merged stream with a 400 before it
// fans out, and passes the owner's 400 through for the proxied paths.
func TestClusterRejectsMalformedIntParams(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	d0 := tc.docOwnedBy(t, 0, "ip0")
	d1 := tc.docOwnedBy(t, 1, "ip1")
	tc.json(t, "PUT", "/docs/"+d0+"?compress=1", strings.Repeat("ab", 20))
	tc.json(t, "PUT", "/docs/"+d1, strings.Repeat("ab", 30))
	code, _ := tc.json(t, "PUT", "/docs/"+d0+"/views/q", "")
	mustStatus(t, code, 201, "put view")

	for _, c := range []struct{ method, path, param string }{
		{"GET", "/stream?query=q&docs=" + d0 + "," + d1 + "&limit=1O", "limit"},
		{"GET", "/stream?query=q&docs=*&limit=-1", "limit"},
		{"GET", "/stream?query=q&doc=" + d1 + "&limit=-1", "limit"},
		{"GET", "/docs/" + d0 + "/changes?query=q&since=abc", "since"},
	} {
		code, body := tc.json(t, c.method, c.path, "")
		mustStatus(t, code, 400, c.path)
		if msg, _ := body["error"].(string); !strings.Contains(msg, "bad "+c.param) {
			t.Fatalf("%s: error %q does not name ?%s=", c.path, msg, c.param)
		}
	}

	// limit=0 is no limit on the merged stream too.
	resp, err := http.Get(tc.front.URL + "/stream?query=q&docs=" + d0 + "," + d1 + "&limit=0")
	if err != nil {
		t.Fatalf("stream limit=0: %v", err)
	}
	defer resp.Body.Close()
	mustStatus(t, resp.StatusCode, 200, "merged stream limit=0")
	if _, summary := readMerged(t, resp.Body, nil); summary["count"] != float64(50) {
		t.Fatalf("limit=0 summary = %v, want all 50 tuples", summary)
	}
}

func TestClusterKillWorkerMidStream(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{
		// Slow probes and no retries: the kill must surface as a
		// mid-stream transport failure, not a fast-failed 503.
		ProbeInterval: 10 * time.Second,
		RetryMax:      0,
	})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	survivor := tc.docOwnedBy(t, 0, "live")
	victim := tc.docOwnedBy(t, 1, "dead")
	// Big enough that the victim's stream cannot fit in socket buffers:
	// the worker is necessarily still emitting when it is killed.
	tc.json(t, "PUT", "/docs/"+survivor, strings.Repeat("ab", 50000))
	tc.json(t, "PUT", "/docs/"+victim, strings.Repeat("ab", 200000))

	resp, err := http.Get(tc.front.URL + "/stream?query=q&docs=" + survivor + "," + victim)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	mustStatus(t, resp.StatusCode, 200, "merged stream")

	var once sync.Once
	counts, summary := readMerged(t, resp.Body, func(doc string) {
		if doc == victim {
			once.Do(func() { tc.workers[1].kill() })
		}
	})
	if summary["done"] != false {
		t.Fatalf("trailer done = %v after worker death; summary %v", summary["done"], summary)
	}
	errsList, _ := summary["errors"].([]any)
	foundVictim := false
	for _, e := range errsList {
		m := e.(map[string]any)
		if m["doc"] == victim {
			foundVictim = true
			if m["error"] == "" || m["status"] != float64(502) {
				t.Fatalf("victim error entry: %v", m)
			}
		}
	}
	if !foundVictim {
		t.Fatalf("no error entry for killed shard; summary %v", summary)
	}
	// The surviving shard's stream completed in full.
	if counts[survivor] != 50000 {
		t.Fatalf("survivor frames = %d, want 50000", counts[survivor])
	}
	for _, res := range summary["results"].([]any) {
		m := res.(map[string]any)
		if m["doc"] == survivor && m["count"] != float64(50000) {
			t.Fatalf("survivor result: %v", m)
		}
	}
}

func TestClusterKillWorkerMidBatch(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{
		ProbeInterval: 10 * time.Second,
		RetryMax:      0,
	})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	survivor := tc.docOwnedBy(t, 0, "live")
	victim := tc.docOwnedBy(t, 1, "dead")
	tc.json(t, "PUT", "/docs/"+survivor, "abab")
	// The victim's sub-batch materializes a large result, so the kill
	// lands while it is still computing.
	tc.json(t, "PUT", "/docs/"+victim, strings.Repeat("ab", 300000))

	body, _ := json.Marshal(map[string]any{"query": "q", "docs": []string{survivor, victim}})
	type batchOut struct {
		code int
		body map[string]any
	}
	done := make(chan batchOut, 1)
	go func() {
		code, out := tc.json(t, "POST", "/batch", string(body))
		done <- batchOut{code, out}
	}()
	time.Sleep(50 * time.Millisecond)
	tc.workers[1].kill()
	res := <-done

	if res.code != 502 {
		t.Fatalf("batch after mid-batch kill: status %d, body %v", res.code, res.body)
	}
	if res.body["partial"] != true || res.body["failed_shards"] != float64(1) {
		t.Fatalf("batch taxonomy: %v", res.body)
	}
	results := res.body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results: %v", results)
	}
	ok := results[0].(map[string]any)
	if ok["doc"] != survivor || ok["count"] != float64(2) || ok["error"] != nil {
		t.Fatalf("survivor result: %v", ok)
	}
	fail := results[1].(map[string]any)
	if fail["doc"] != victim || fail["error"] == nil || fail["status"] != float64(502) {
		t.Fatalf("victim result: %v", fail)
	}
}

func TestClusterBreakerOpensAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{
		ProbeInterval:    20 * time.Millisecond,
		RetryMax:         0,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	d0 := tc.docOwnedBy(t, 0, "up")
	d1 := tc.docOwnedBy(t, 1, "down")
	tc.json(t, "PUT", "/docs/"+d0, "abab")
	tc.json(t, "PUT", "/docs/"+d1, "ababab")

	tc.workers[1].kill()
	tc.waitWorkersUp(t, 1)

	// Requests for the dead shard fail fast with the retryable taxonomy.
	resp, _ := tc.request(t, "GET", "/eval?query=q&doc="+d1, "")
	if resp.StatusCode != 503 {
		t.Fatalf("dead shard eval: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}

	// The other shard keeps serving.
	code, _ := tc.json(t, "GET", "/eval?query=q&doc="+d0, "")
	mustStatus(t, code, 200, "surviving shard eval")

	// Registry mutations refuse to run degraded.
	code, _ = tc.json(t, "PUT", "/queries/q2", `{"src": ".*!x{ab}.*"}`)
	mustStatus(t, code, 503, "degraded query put")

	// A batch spanning both shards returns partial results.
	body, _ := json.Marshal(map[string]any{"query": "q", "docs": []string{d0, d1}})
	code, out := tc.json(t, "POST", "/batch", string(body))
	if code != 503 && code != 502 {
		t.Fatalf("degraded batch: status %d body %v", code, out)
	}
	if out["partial"] != true {
		t.Fatalf("degraded batch not partial: %v", out)
	}

	// The worker restarts with its state; the prober brings it back and
	// the shard serves again.
	tc.workers[1].restart(t)
	tc.waitWorkersUp(t, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := tc.request(t, "GET", "/eval?query=q&doc="+d1, "")
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never recovered: status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	code, body2 := tc.json(t, "GET", "/eval?query=q&doc="+d1, "")
	mustStatus(t, code, 200, "recovered eval")
	if body2["count"] != float64(3) {
		t.Fatalf("recovered eval: %v", body2)
	}
}

func TestClusterBreakerFastFail(t *testing.T) {
	// A worker URL that refuses connections from the start: the breaker
	// must open after repeated transport failures and then fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadURL := "http://" + ln.Addr().String()
	_ = ln.Close()

	w := startTestWorker(t, newTestServer(t, Config{}))
	defer w.kill()
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:          []string{w.url, deadURL},
		ProbeInterval:    10 * time.Second, // prober stays out of the way
		RetryMax:         0,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	// The synchronous first probe marked the dead worker down; force it
	// up so requests exercise the breaker, not the ring.
	coord.Ring().SetUp(1, true)

	front := httptest.NewServer(coord)
	defer front.Close()

	var name string
	for i := 0; ; i++ {
		name = fmt.Sprintf("bk-%d", i)
		if coord.Ring().Owner(name) == 1 {
			break
		}
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(front.URL + "/docs/" + name)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != 502 {
			t.Fatalf("transport failure status = %d, want 502", resp.StatusCode)
		}
	}
	if st := coord.client.Breaker(1).State(); st != "open" {
		t.Fatalf("breaker state = %q, want open", st)
	}
	resp, err := http.Get(front.URL + "/docs/" + name)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("breaker-open status = %d, want 503", resp.StatusCode)
	}
	if coord.client.BreakerFastFails.Load() == 0 {
		t.Fatalf("no breaker fast-fails recorded")
	}
}

func TestClusterRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &logs}, nil))

	srv, err := New(Config{Logger: logger})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := startTestWorker(t, srv)
	defer w.kill()
	defer srv.Close()

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:       []string{w.url},
		ProbeInterval: 10 * time.Second,
		Logger:        logger,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord)
	defer front.Close()

	req, _ := http.NewRequest("GET", front.URL+"/docs", nil)
	req.Header.Set("X-Request-ID", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-123" {
		t.Fatalf("response X-Request-ID = %q", got)
	}

	mu.Lock()
	text := logs.String()
	mu.Unlock()
	coordLines, workerLines := 0, 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, `"request_id":"trace-me-123"`) {
			continue
		}
		if strings.Contains(line, `"role":"coordinator"`) {
			coordLines++
		} else {
			workerLines++
		}
	}
	if coordLines == 0 || workerLines == 0 {
		t.Fatalf("request id not logged on both sides (coordinator %d, worker %d):\n%s",
			coordLines, workerLines, text)
	}

	// Without a client-sent id, the coordinator mints one and the worker
	// reuses it (same id on both log lines).
	resp2, err := http.Get(front.URL + "/docs")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	_ = resp2.Body.Close()
	minted := resp2.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatalf("no minted request id")
	}
	mu.Lock()
	text = logs.String()
	mu.Unlock()
	if got := strings.Count(text, `"request_id":"`+minted+`"`); got < 2 {
		t.Fatalf("minted id %q on %d log lines, want >= 2", minted, got)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestLimiterSetsRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	do(t, s, "PUT", "/docs/d", "abab")
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	// Occupy the only slot, then ask for an evaluation with a short
	// deadline: the limiter's 503 must carry Retry-After.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	req := httptest.NewRequest("GET", "/eval?query=q&doc=d&timeout=30ms", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Fatalf("limited eval status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

func TestBootGateReadiness(t *testing.T) {
	gate := NewBootGate()
	front := httptest.NewServer(gate)
	defer front.Close()

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("booting /healthz = %d, want 200 (liveness only)", resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("booting /readyz = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(front.URL + "/docs")
	if err != nil {
		t.Fatalf("docs: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("booting /docs = %d, want 503", resp.StatusCode)
	}

	srv := newTestServer(t, Config{})
	defer srv.Close()
	gate.Ready(srv)
	resp, err = http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || body["status"] != "serving" {
		t.Fatalf("ready /readyz = %d %v", resp.StatusCode, body)
	}
}

func TestClusterMetricsAggregation(t *testing.T) {
	tc := newTestCluster(t, 2, CoordinatorConfig{ProbeInterval: 20 * time.Millisecond})
	tc.json(t, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)
	d0 := tc.docOwnedBy(t, 0, "m0")
	d1 := tc.docOwnedBy(t, 1, "m1")
	tc.json(t, "PUT", "/docs/"+d0, "ab")
	tc.json(t, "PUT", "/docs/"+d1, "ab")

	// Wait for a probe cycle to pick up the counts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, b := tc.request(t, "GET", "/metrics", "")
		text := string(b)
		if strings.Contains(text, "spannerd_cluster_documents 2") &&
			strings.Contains(text, "spannerd_cluster_queries 1") &&
			strings.Contains(text, "spannerd_cluster_workers_up 2") {
			if !strings.Contains(text, "spannerd_coordinator_requests_total") {
				t.Fatalf("metrics missing coordinator request counters")
			}
			if !strings.Contains(text, "spannerd_cluster_worker_up{worker=") {
				t.Fatalf("metrics missing per-worker up gauges")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster gauges never converged:\n%s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, body := tc.json(t, "GET", "/varz", "")
	mustStatus(t, code, 200, "varz")
	if body["coordinator"] == nil || body["workers"] == nil {
		t.Fatalf("varz shape: %v", body)
	}
}
