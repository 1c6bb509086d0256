package server

// Cross-document evaluation through the coordinator: /stream?docs=a,b
// (or docs=*) interleaves the owning workers' NDJSON streams into one
// merged stream with a combined summary trailer, and POST /batch
// partitions the document list by owner, runs one sub-batch per shard,
// and reassembles per-document results in request order. Both degrade
// per shard: a dead worker costs its own documents, not the request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"docspanner/internal/cluster"
)

// handleStreamProxy: single-document streams pass through to the owner
// untouched (zero re-framing); ?docs= selects the merged fan-out path.
func (c *Coordinator) handleStreamProxy(w http.ResponseWriter, r *http.Request) error {
	if r.URL.Query().Get("docs") != "" {
		return c.handleMergedStream(w, r)
	}
	return c.proxyByDocParam(w, r)
}

// mergedOut serializes concurrent shard streams into one client
// response: every tuple frame is wrapped as {"doc":…,"tuple":…} and
// written under one mutex through the pooled zero-alloc encoder, with
// the worker /stream flush cadence (first line immediately, then every
// streamFlushEvery lines). A global ?limit= is enforced here — each
// shard also receives it as a per-shard upper bound — and hitting it
// (or losing the client) cancels the remaining shard streams.
type mergedOut struct {
	mu    sync.Mutex
	enc   *ndjsonEncoder
	rc    *http.ResponseController
	stop  context.CancelFunc
	limit int
	n     int
	buf   []byte
	dead  bool // client disconnected mid-stream
}

// write relays one tuple frame; false tells the caller to stop reading
// its shard stream (limit reached, client gone, or stream aborted).
func (o *mergedOut) write(doc string, frame []byte) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead || (o.limit > 0 && o.n >= o.limit) {
		return false
	}
	o.buf = append(o.buf[:0], `{"doc":`...)
	o.buf = appendEscapedString(o.buf, doc)
	o.buf = append(o.buf, `,"tuple":`...)
	o.buf = append(o.buf, frame...)
	o.buf = append(o.buf, '}')
	if err := o.enc.WriteLine(o.buf); err != nil {
		o.dead = true
		o.stop()
		return false
	}
	o.n++
	if o.n == 1 || o.n%streamFlushEvery == 0 {
		if err := o.enc.Flush(o.rc); err != nil {
			o.dead = true
			o.stop()
			return false
		}
	}
	if o.limit > 0 && o.n >= o.limit {
		o.stop()
	}
	return true
}

// shardStreamResult is one document's outcome inside a merged stream.
type shardStreamResult struct {
	Doc     string `json:"doc"`
	Worker  string `json:"worker"`
	Count   int    `json:"count"`
	Version int    `json:"version,omitempty"`
	Err     string `json:"error,omitempty"`
	Status  int    `json:"status,omitempty"`
}

func (c *Coordinator) handleMergedStream(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	query := r.URL.Query().Get("query")
	if query == "" {
		return errBadRequest("stream needs ?query=")
	}
	limit, err := intParam(r, "limit", 0)
	if err != nil {
		return err
	}
	docsParam := r.URL.Query().Get("docs")
	docs := splitDocs(docsParam)
	if docsParam == "*" {
		if docs, err = c.listAllDocs(r); err != nil {
			return err
		}
	}
	if len(docs) == 0 {
		return errBadRequest("stream ?docs= matched no documents")
	}
	if err := c.checkQuery(ctx, r, query); err != nil {
		return err
	}
	contentParam := r.URL.Query().Get("content")

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := newNDJSONEncoder(w)
	defer enc.Release()

	streamCtx, stopAll := context.WithCancel(ctx)
	defer stopAll()
	out := &mergedOut{enc: enc, rc: rc, stop: stopAll, limit: limit}

	start := time.Now()
	results := cluster.Scatter(streamCtx, docs, 4*c.ring.N(), func(ctx context.Context, _ int, name string) shardStreamResult {
		return c.streamOneShard(ctx, r, out, query, name, contentParam, limit)
	})
	took := time.Since(start)

	if out.dead {
		return c.metrics.streamDisconnect(w)
	}
	c.cm.mergedTuples.Add(uint64(out.n))

	var shards, shardErrs []shardStreamResult
	for i, res := range results {
		if res.Doc == "" {
			// Scatter never dispatched this slot: the deadline or limit cut
			// the fan-out short before this document's turn.
			res = shardStreamResult{Doc: docs[i], Worker: c.ring.URL(c.ring.Owner(docs[i]))}
			if limit > 0 && out.n >= limit {
				res.Count = 0 // limit satisfied before this shard was needed
			} else {
				res.Err = "not attempted: fan-out cancelled by deadline"
				res.Status = http.StatusGatewayTimeout
			}
		}
		if res.Err != "" && res.Status == 499 && limit > 0 && out.n >= limit {
			// The global limit cancelled this shard's fetch mid-flight;
			// that is satisfaction, not failure.
			res.Err = ""
			res.Status = 0
		}
		if res.Err != "" {
			c.cm.shardErrors.Add(1)
			shardErrs = append(shardErrs, res)
		} else {
			shards = append(shards, res)
		}
	}

	// Nothing reached the client yet and every shard failed: surface a
	// real error status instead of a 200 stream that is all trailer.
	if out.n == 0 && len(shardErrs) == len(docs) {
		st := shardErrs[0].Status
		if st == 0 {
			st = http.StatusBadGateway
		}
		he := &httpError{status: st, message: shardErrs[0].Err}
		if st == http.StatusServiceUnavailable {
			he.retryAfter = 1
		}
		return he
	}

	summary := map[string]any{
		"done":    len(shardErrs) == 0,
		"count":   out.n,
		"docs":    len(docs),
		"took":    took.String(),
		"results": shards,
	}
	if len(shardErrs) > 0 {
		summary["errors"] = shardErrs
	}
	return c.metrics.endStream(w, enc, rc, summary)
}

// streamOneShard opens one worker /stream for one document and relays
// its tuple frames into the merged output. The FrameScanner keeps the
// summary trailer out of the data path — a stream that ends without one
// is a worker death, reported as this document's error.
func (c *Coordinator) streamOneShard(ctx context.Context, r *http.Request, out *mergedOut, query, name, contentParam string, limit int) shardStreamResult {
	wk := c.ring.Owner(name)
	res := shardStreamResult{Doc: name, Worker: c.ring.URL(wk)}
	q := url.Values{"query": {query}, "doc": {name}}
	if contentParam != "" {
		q.Set("content", contentParam)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	resp, release, err := c.client.GetIdempotent(ctx, wk, func(ctx context.Context) (*http.Request, error) {
		return c.outgoing(ctx, http.MethodGet, wk, "/stream", q, nil, r)
	})
	if err != nil {
		res.Err = err.Error()
		res.Status = cluster.StatusFor(err)
		return res
	}
	defer release()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		res.Err = workerErrorMessage(body, resp.StatusCode)
		res.Status = resp.StatusCode
		return res
	}
	sc := cluster.NewFrameScanner(resp.Body)
	for {
		frame, err := sc.Next()
		if errors.Is(err, io.EOF) {
			sum := sc.Summary()
			res.Version = sum.Version
			if !sum.Done && sum.Error != "" {
				res.Err = "worker aborted mid-stream: " + sum.Error
				res.Status = http.StatusBadGateway
			}
			return res
		}
		if err != nil {
			res.Err = err.Error()
			res.Status = http.StatusBadGateway
			return res
		}
		if !out.write(name, frame) {
			// Global limit hit or client gone; the frames already relayed
			// stand, this shard just stops early.
			return res
		}
		res.Count++
	}
}

// workerErrorMessage extracts {"error": …} from a worker error body,
// falling back to the raw status.
func workerErrorMessage(body []byte, status int) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return "worker returned status " + strconv.Itoa(status)
}

// listAllDocs resolves ?docs=* by merging the up workers' /docs
// listings. Down or failing shards contribute nothing — their documents
// are unreachable anyway; the merged trailer's results make the
// per-shard coverage explicit.
func (c *Coordinator) listAllDocs(r *http.Request) ([]string, error) {
	docs, _, err := gatherList(c, r, "/docs", "docs", func(*docInfo, string) {})
	names := make([]string, len(docs))
	for i, d := range docs {
		names[i] = d.Name
	}
	return names, err
}

// --- batch scatter-gather ---

// workerBatchResp decodes a worker /batch response without re-decoding
// the tuple arrays: each per-document result stays raw JSON fields.
type workerBatchResp struct {
	Count   int                          `json:"count"`
	Took    string                       `json:"took"`
	Results []map[string]json.RawMessage `json:"results"`
}

// handleBatchScatter partitions the request's document list by owning
// shard, POSTs one sub-batch per shard concurrently (batch evaluation
// is a pure read, so it rides the retrying idempotent path), and
// reassembles per-document results in the original request order, each
// annotated with the shard that produced it. A failed shard degrades to
// per-document error entries and an overall 502/503 with partial=true;
// the surviving shards' results are still returned.
func (c *Coordinator) handleBatchScatter(w http.ResponseWriter, r *http.Request) error {
	var req batchRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if len(req.Docs) == 0 {
		return errBadRequest("batch needs a non-empty docs list")
	}
	if req.Query == "" {
		return errBadRequest("batch needs a query name")
	}
	ctx := r.Context()
	if err := c.checkQuery(ctx, r, req.Query); err != nil {
		return err
	}

	// Partition by owner, remembering each document's request position.
	type shardBatch struct {
		worker int
		docs   []string
		pos    []int
	}
	byWorker := map[int]*shardBatch{}
	var order []*shardBatch
	for i, name := range req.Docs {
		wk := c.ring.Owner(name)
		sb, ok := byWorker[wk]
		if !ok {
			sb = &shardBatch{worker: wk}
			byWorker[wk] = sb
			order = append(order, sb)
		}
		sb.docs = append(sb.docs, name)
		sb.pos = append(sb.pos, i)
	}

	type shardOutcome struct {
		sb   *shardBatch
		resp *workerBatchResp
		err  error
	}
	start := time.Now()
	outcomes := cluster.Scatter(ctx, order, 0, func(ctx context.Context, _ int, sb *shardBatch) shardOutcome {
		oc := shardOutcome{sb: sb}
		body, err := json.Marshal(batchRequest{
			Query:   req.Query,
			Docs:    sb.docs,
			Workers: req.Workers,
			Content: req.Content,
		})
		if err != nil {
			oc.err = err
			return oc
		}
		resp, release, err := c.client.GetIdempotent(ctx, sb.worker, func(ctx context.Context) (*http.Request, error) {
			req, err := c.outgoing(ctx, http.MethodPost, sb.worker, "/batch", nil, bytes.NewReader(body), r)
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return req, nil
		})
		if err != nil {
			oc.err = err
			return oc
		}
		defer release()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			oc.err = &httpError{status: resp.StatusCode, message: workerErrorMessage(b, resp.StatusCode)}
			return oc
		}
		var wb workerBatchResp
		if err := json.NewDecoder(resp.Body).Decode(&wb); err != nil {
			oc.err = err
			return oc
		}
		if len(wb.Results) != len(sb.docs) {
			oc.err = errors.New("worker batch returned wrong result count")
			return oc
		}
		oc.resp = &wb
		return oc
	})
	took := time.Since(start)

	results := make([]any, len(req.Docs))
	total, failures := 0, 0
	var firstStatus int
	allFastFail := true
	for i, oc := range outcomes {
		sb := order[i]
		if oc.sb == nil {
			// Scatter never dispatched this shard (deadline hit first).
			oc = shardOutcome{sb: sb, err: context.DeadlineExceeded}
		}
		workerURL := c.ring.URL(sb.worker)
		if oc.err != nil {
			st := cluster.StatusFor(oc.err)
			var he *httpError
			if errors.As(oc.err, &he) {
				st = he.status
			}
			if st != http.StatusServiceUnavailable {
				allFastFail = false
			}
			if firstStatus == 0 {
				firstStatus = st
			}
			failures++
			c.cm.shardErrors.Add(1)
			for _, p := range sb.pos {
				results[p] = map[string]any{
					"doc":    req.Docs[p],
					"worker": workerURL,
					"error":  oc.err.Error(),
					"status": st,
				}
			}
			continue
		}
		allFastFail = false
		total += oc.resp.Count
		quotedWorker, _ := json.Marshal(workerURL)
		for k, p := range sb.pos {
			entry := oc.resp.Results[k]
			entry["worker"] = quotedWorker
			results[p] = entry
		}
	}

	out := map[string]any{
		"query":   req.Query,
		"docs":    len(req.Docs),
		"count":   total,
		"took":    took.String(),
		"results": results,
	}
	status := 200
	if failures > 0 {
		out["partial"] = true
		out["failed_shards"] = failures
		// Every shard refused fast (down / breaker open): the request is
		// retryable as a whole — 503. Any mixed or transport-level failure
		// is the gateway's fault to report — 502.
		if allFastFail && firstStatus == http.StatusServiceUnavailable {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		} else {
			status = http.StatusBadGateway
		}
	}
	writeJSON(w, status, out)
	return nil
}
