package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"docspanner"
	"docspanner/internal/cluster"
)

// --- document handlers ---

func (s *Server) handleDocList(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{"docs": s.store.list()})
	return nil
}

// handleDocPut ingests the request body as the named document.
// ?compress=1 stores it SLP-compressed (Re-Pair + balancing).
func (s *Server) handleDocPut(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return errBadRequest("reading body: " + err.Error())
	}
	sd, err := s.store.put(name, data, boolParam(r, "compress"))
	// A non-nil snapshot means the mutation is visible (even when only
	// its durability barrier failed): views must refresh regardless.
	if sd != nil {
		s.notifyDocChanged(sd)
	}
	if err != nil {
		return err
	}
	writeJSON(w, 200, sd.info())
	return nil
}

// handleDocGet returns the document's metadata, or with ?content=1 its
// text (decompressing a compressed document once per snapshot).
func (s *Server) handleDocGet(w http.ResponseWriter, r *http.Request) error {
	d, err := s.store.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	if boolParam(r, "content") {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, err := w.Write(d.bytes())
		return err
	}
	writeJSON(w, 200, d.info())
	return nil
}

func (s *Server) handleDocDelete(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	err := s.store.delete(name)
	if err != nil && !isSyncFailed(err) {
		return err
	}
	dropped := s.views.DropDoc(name)
	s.forgetSuperseded()
	if err != nil {
		return err
	}
	writeJSON(w, 200, map[string]any{"status": "deleted", "views_dropped": dropped})
	return nil
}

func (s *Server) handleDocCompress(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	sd, err := s.store.compress(name)
	if sd != nil {
		s.notifyDocChanged(sd)
	}
	if err != nil {
		return err
	}
	writeJSON(w, 200, sd.info())
	return nil
}

// handleDocEdit applies a CDE edit expression — concat, extract,
// delete, insert, copy over the store's named documents — and stores
// the result under {name}, in time O(|expr|·log d) on the grammars.
func (s *Server) handleDocEdit(w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Expr string `json:"expr"`
	}
	if err := decodeJSON(r, &body); err != nil {
		return err
	}
	if body.Expr == "" {
		return errBadRequest(`edit needs a CDE expression, e.g. {"expr": "insert(d1, extract(d2,1,4), 7)"}`)
	}
	name := r.PathValue("name")
	sd, err := s.store.edit(name, body.Expr)
	if sd != nil {
		s.notifyDocChanged(sd)
	}
	if err != nil {
		return err
	}
	writeJSON(w, 200, sd.info())
	return nil
}

// handleDocWarm runs the compressed-evaluation preprocessing of a
// prepared query (?query=) over the named document: one bottom-up pass
// over the nodes the query's index has no data for yet. 422 when the
// query's plan does not fuse to a single regular scan.
func (s *Server) handleDocWarm(w http.ResponseWriter, r *http.Request) error {
	d, err := s.store.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	p, err := s.queries.get(r.URL.Query().Get("query"))
	if err != nil {
		return err
	}
	ix, err := p.query.Index()
	if err != nil {
		return &httpError{status: 422, message: err.Error()}
	}
	start := time.Now()
	ix.Warm(d.doc)
	writeJSON(w, 200, map[string]any{
		"doc":          d.name,
		"query":        p.name,
		"grammar_size": d.doc.GrammarSize(),
		"took":         time.Since(start).String(),
	})
	return nil
}

// --- query handlers ---

func (s *Server) handleQueryList(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{"queries": s.queries.list()})
	return nil
}

func (s *Server) handleQueryPut(w http.ResponseWriter, r *http.Request) error {
	// The raw body is kept alongside the decoded spec: it is what the
	// storage backend persists and recovery re-registers.
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return errBadRequest("reading body: " + err.Error())
	}
	name := r.PathValue("name")
	info, err := s.queries.register(name, raw)
	if err != nil && !isSyncFailed(err) {
		return err
	}
	// A re-registration may change the query's definition; views built on
	// the old one are dropped rather than silently serving stale results.
	// This cascade runs even when only the durability barrier failed —
	// the registration is applied and logged.
	s.views.DropQuery(name)
	if err != nil {
		return err
	}
	writeJSON(w, 200, info)
	return nil
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) error {
	p, err := s.queries.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	writeJSON(w, 200, p.info())
	return nil
}

func (s *Server) handleQueryDelete(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	err := s.queries.delete(name)
	if err != nil && !isSyncFailed(err) {
		return err
	}
	dropped := s.views.DropQuery(name)
	if err != nil {
		return err
	}
	writeJSON(w, 200, map[string]any{"status": "deleted", "views_dropped": dropped})
	return nil
}

func (s *Server) handleQueryExplain(w http.ResponseWriter, r *http.Request) error {
	p, err := s.queries.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	writeJSON(w, 200, map[string]any{
		"name":      p.name,
		"src":       p.src,
		"streaming": p.query.Streaming(),
		"plan":      p.query.Explain(),
	})
	return nil
}

// --- evaluation handlers ---

// evalTarget resolves the ?query= and ?doc= parameters of an
// evaluation request.
func (s *Server) evalTarget(r *http.Request) (*preparedQuery, *storedDoc, error) {
	p, err := s.queries.get(r.URL.Query().Get("query"))
	if err != nil {
		return nil, nil, err
	}
	d, err := s.store.get(r.URL.Query().Get("doc"))
	if err != nil {
		return nil, nil, err
	}
	return p, d, nil
}

// tupleJSON renders a tuple as {"x": {"begin": 1, "end": 3, "content": "ab"}, ...}.
// Spans follow the survey's convention: 1-based, end-exclusive. content
// is included unless the request said ?content=0.
func tupleJSON(t docspanner.Tuple, doc []byte, withContent bool) map[string]any {
	out := make(map[string]any, len(t))
	for _, v := range t.Vars() {
		sp := t[v]
		m := map[string]any{"begin": sp.Begin, "end": sp.End}
		if withContent && doc != nil {
			m["content"] = string(sp.Content(doc))
		}
		out[string(v)] = m
	}
	return out
}

// withContent defaults to true; ?content=0 turns span contents off.
func withContent(r *http.Request) bool {
	v := r.URL.Query().Get("content")
	return v == "" || !(v == "0" || v == "false")
}

// evalSorted is the materializing path /eval and /batch share: enumerate
// under ctx (a deadline is observed per tuple instead of only after the
// whole evaluation) into a pooled slice, sort it into the canonical order
// (deterministic across runs and backends), and hand it to use — valid
// only until use returns. Every plan enumerates each tuple once, so
// nothing is deduplicated here.
func evalSorted(ctx context.Context, q *docspanner.Query, d *storedDoc, use func(sorted []docspanner.Tuple)) error {
	tuples := getEvalBuf()
	defer func() { putEvalBuf(tuples) }()
	if err := q.EnumerateSource(ctx, d.source(), func(t docspanner.Tuple) bool { tuples = append(tuples, t); return true }); err != nil {
		return err
	}
	docspanner.SortTuples(tuples)
	use(tuples)
	return nil
}

// contentDoc returns the text span contents are cut from, or nil when
// the request turned contents off.
func contentDoc(d *storedDoc, wc bool) []byte {
	if !wc {
		return nil
	}
	return d.bytes()
}

// handleEval materializes the query result on one document and returns
// it as a sorted JSON array.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) error {
	p, d, err := s.evalTarget(r)
	if err != nil {
		return err
	}
	wc := withContent(r)
	start := time.Now()
	return evalSorted(r.Context(), p.query, d, func(tuples []docspanner.Tuple) {
		took := time.Since(start)
		s.metrics.query(p.name, "eval", len(tuples), took)
		writeJSON(w, 200, map[string]any{
			"query":   p.name,
			"doc":     d.name,
			"version": d.version,
			"count":   len(tuples),
			"took":    took.String(),
			"tuples":  tuplesJSON(tuples, contentDoc(d, wc), wc),
		})
	})
}

// evalBufPool recycles evalSorted's per-document tuple collection; the
// references are cleared on the way back so pooled slices don't retain
// result tuples across requests.
var evalBufPool = sync.Pool{
	New: func() any { s := make([]docspanner.Tuple, 0, 64); return &s },
}

func getEvalBuf() []docspanner.Tuple { return (*evalBufPool.Get().(*[]docspanner.Tuple))[:0] }

func putEvalBuf(ts []docspanner.Tuple) {
	for i := range ts {
		ts[i] = nil
	}
	ts = ts[:0]
	evalBufPool.Put(&ts)
}

// tuplesJSON serializes a tuple slice as one raw JSON array through the
// hand-rolled encoder — one buffer for the whole array instead of three
// maps per tuple.
func tuplesJSON(tuples []docspanner.Tuple, doc []byte, wc bool) json.RawMessage {
	buf := make([]byte, 0, 64*(len(tuples)+1))
	var vars []docspanner.Var
	buf = append(buf, '[')
	for i, t := range tuples {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf, vars = appendTupleValue(buf, t, doc, wc, vars)
	}
	return json.RawMessage(append(buf, ']'))
}

// handleCount counts result tuples, observing cancellation per tuple on
// streaming plans.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) error {
	p, d, err := s.evalTarget(r)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := p.query.CountSource(r.Context(), d.source())
	if err != nil {
		return err
	}
	took := time.Since(start)
	s.metrics.query(p.name, "count", n, took)
	writeJSON(w, 200, map[string]any{
		"query":   p.name,
		"doc":     d.name,
		"version": d.version,
		"count":   n,
		"took":    took.String(),
	})
	return nil
}

// handleStream enumerates the query on one document as NDJSON through
// the pooled zero-allocation encoder, flushing the first tuple
// immediately and then every streamFlushEvery tuples: on a streaming
// plan (the constant-delay enumerator, or the O(log|D|)-delay
// compressed enumerator) the first line reaches the client before the
// result is fully materialized. ?limit=N stops after N tuples. The
// final line is a summary object {"done": true, "count": N, ...}.
//
// A failed write or flush means the client is gone: the enumeration is
// aborted at the next tuple instead of running (and serializing) the
// rest of the result into a dead connection, and the request is
// recorded as a 499 client disconnect.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) error {
	p, d, err := s.evalTarget(r)
	if err != nil {
		return err
	}
	limit, err := intParam(r, "limit", 0)
	if err != nil {
		return err
	}
	wc := withContent(r)
	doc := contentDoc(d, wc)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Streaming-Plan", strconv.FormatBool(p.query.Streaming()))
	rc := http.NewResponseController(w)
	enc := newNDJSONEncoder(w)
	defer enc.Release()

	start := time.Now()
	n := 0
	var ioErr error
	emit := func(t docspanner.Tuple) bool {
		if e := enc.EncodeTuple(t, doc, wc); e != nil {
			ioErr = e
			return false
		}
		if n == 0 || (n+1)%streamFlushEvery == 0 {
			if e := enc.Flush(rc); e != nil {
				ioErr = e
				return false
			}
		}
		n++
		return limit == 0 || n < limit
	}
	err = p.query.EnumerateSource(r.Context(), d.source(), emit)
	took := time.Since(start)
	s.metrics.query(p.name, "stream", n, took)
	if ioErr != nil {
		return s.metrics.streamDisconnect(w)
	}
	summary := map[string]any{"done": true, "count": n, "took": took.String(), "version": d.version}
	if err != nil {
		// Headers are out; report the cancellation in-band on the trailer
		// line so clients can distinguish truncation from completion.
		summary["done"] = false
		summary["error"] = err.Error()
	}
	return s.metrics.endStream(w, enc, rc, summary)
}

// batchRequest is the body of POST /batch: one prepared query over a
// set of stored documents, evaluated on a bounded worker pool.
type batchRequest struct {
	Query   string   `json:"query"`
	Docs    []string `json:"docs"`
	Workers int      `json:"workers,omitempty"`
	// Content includes span contents in the tuples (default true).
	Content *bool `json:"content,omitempty"`
}

// handleBatch evaluates (and encodes) a query over many stored documents
// on a bounded worker pool, returning one result object per document in
// request order. Every document — plain or compressed — goes through
// evalSorted, so the request deadline is observed per tuple inside each
// document, not only between documents.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Docs) == 0 {
		return errBadRequest("batch needs a non-empty docs list")
	}
	p, err := s.queries.get(req.Query)
	if err != nil {
		return err
	}
	wc := req.Content == nil || *req.Content

	// Resolve all snapshots up front: a missing document fails the batch
	// before any evaluation starts.
	docs := make([]*storedDoc, len(req.Docs))
	for i, name := range req.Docs {
		if docs[i], err = s.store.get(name); err != nil {
			return err
		}
	}

	workers := req.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := r.Context()
	results := make([]map[string]any, len(docs))
	start := time.Now()
	errs := cluster.Scatter(ctx, docs, workers, func(ctx context.Context, i int, d *storedDoc) error {
		return evalSorted(ctx, p.query, d, func(tuples []docspanner.Tuple) {
			results[i] = map[string]any{
				"doc":     d.name,
				"version": d.version,
				"count":   len(tuples),
				"tuples":  tuplesJSON(tuples, contentDoc(d, wc), wc),
			}
		})
	})
	took := time.Since(start)

	total := 0
	for i, err := range errs {
		if err != nil {
			return err
		}
		if results[i] == nil {
			// Never dispatched: Scatter stops once the context is done.
			return ctx.Err()
		}
		total += results[i]["count"].(int)
	}
	s.metrics.query(p.name, "batch", total, took)
	writeJSON(w, 200, map[string]any{
		"query":   p.name,
		"docs":    len(docs),
		"count":   total,
		"took":    took.String(),
		"results": results,
	})
	return nil
}

// --- small helpers ---

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest(fmt.Sprintf("bad JSON body: %s", err))
	}
	return nil
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// intParam reads a non-negative integer query parameter, def when it is
// absent; anything else is a 400, as a bad ?timeout= is.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, errBadRequest(fmt.Sprintf("bad %s %q (want a non-negative integer)", name, v))
	}
	return n, nil
}
