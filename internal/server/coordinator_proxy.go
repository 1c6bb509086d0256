package server

// Single-owner proxying and whole-cluster fan-outs. Single-document
// requests ride to the shard the ring picks; query registry mutations
// must land on every shard (a partially-registered query would make
// results depend on where a document happens to hash), so they fan out
// to all workers and roll back on partial failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"docspanner/internal/cluster"
)

// outgoing builds the worker-bound copy of a request: the worker's base
// URL plus path and query, the remaining deadline budget pushed down as
// ?timeout= (so a worker never keeps computing past the coordinator's
// own deadline), and the request id propagated for trace stitching.
func (c *Coordinator) outgoing(ctx context.Context, method string, worker int, path string, q url.Values, body io.Reader, r *http.Request) (*http.Request, error) {
	if q == nil {
		q = url.Values{}
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, context.DeadlineExceeded
		}
		q.Set("timeout", remaining.String())
	}
	u := c.ring.URL(worker) + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if id := r.Header.Get("X-Request-ID"); id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
	}
	return req, nil
}

// proxy forwards the whole request to one worker and relays the
// response verbatim. GETs go through the retrying idempotent path;
// mutations are sent exactly once.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, worker int) error {
	ctx := r.Context()
	path := r.URL.EscapedPath()
	var resp *http.Response
	var release func()
	var err error
	if r.Method == http.MethodGet {
		resp, release, err = c.client.GetIdempotent(ctx, worker, func(ctx context.Context) (*http.Request, error) {
			return c.outgoing(ctx, http.MethodGet, worker, path, r.URL.Query(), nil, r)
		})
	} else {
		var req *http.Request
		req, err = c.outgoing(ctx, r.Method, worker, path, r.URL.Query(), r.Body, r)
		if err != nil {
			return err
		}
		resp, release, err = c.client.Do(req, worker)
	}
	if err != nil {
		return clusterErr(err)
	}
	defer release()
	defer resp.Body.Close()
	return c.relay(w, resp, worker)
}

// relay copies a worker response to the client, flushing as chunks
// arrive so proxied NDJSON streams stay streams. A worker dying
// mid-relay cannot be turned into a status anymore (headers are out);
// it is counted as a shard error and the truncated body speaks for
// itself — NDJSON clients see the missing summary trailer.
func (c *Coordinator) relay(w http.ResponseWriter, resp *http.Response, worker int) error {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Streaming-Plan"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Worker", c.ring.URL(worker))
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return c.metrics.streamDisconnect(w)
			}
			if ferr := rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
				return c.metrics.streamDisconnect(w)
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			c.cm.shardErrors.Add(1)
			return nil
		}
	}
}

// proxyDocOwner routes by the {name} path segment.
func (c *Coordinator) proxyDocOwner(w http.ResponseWriter, r *http.Request) error {
	return c.proxy(w, r, c.ring.Owner(r.PathValue("name")))
}

// proxyFirstUp serves shard-agnostic reads (query metadata is
// replicated onto every shard) from the lowest-indexed up worker.
func (c *Coordinator) proxyFirstUp(w http.ResponseWriter, r *http.Request) error {
	wk := c.ring.FirstUp()
	if wk < 0 {
		return errUnavailable("no workers available")
	}
	return c.proxy(w, r, wk)
}

// proxyByDocParam routes /eval, /count and single-document /stream by
// ?doc=.
func (c *Coordinator) proxyByDocParam(w http.ResponseWriter, r *http.Request) error {
	doc := r.URL.Query().Get("doc")
	if doc == "" {
		// Let a live worker produce the canonical 404 for the missing
		// parameter instead of inventing a second error shape here.
		return c.proxyFirstUp(w, r)
	}
	return c.proxy(w, r, c.ring.Owner(doc))
}

// fanResult is one worker's slot in a fan-out.
type fanResult struct {
	Worker string          `json:"worker"`
	Status int             `json:"status,omitempty"`
	Err    string          `json:"error,omitempty"`
	Body   json.RawMessage `json:"-"`
}

// fanAll sends the same request to every worker (or every up worker)
// concurrently and gathers per-worker outcomes. Bodies are buffered up
// to 1 MiB — fan-out targets are metadata endpoints, not tuple streams.
func (c *Coordinator) fanAll(ctx context.Context, r *http.Request, method, path string, body []byte, upOnly bool) []fanResult {
	idx := make([]int, 0, c.ring.N())
	for i := 0; i < c.ring.N(); i++ {
		if upOnly && !c.ring.Up(i) {
			continue
		}
		idx = append(idx, i)
	}
	return cluster.Scatter(ctx, idx, 0, func(ctx context.Context, _ int, wk int) fanResult {
		res := fanResult{Worker: c.ring.URL(wk)}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := c.outgoing(ctx, method, wk, path, nil, rd, r)
		if err != nil {
			res.Err = err.Error()
			res.Status = cluster.StatusFor(err)
			return res
		}
		resp, release, err := c.client.Do(req, wk)
		if err != nil {
			res.Err = err.Error()
			res.Status = cluster.StatusFor(err)
			return res
		}
		defer release()
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		res.Status = resp.StatusCode
		res.Body = b
		return res
	})
}

// gatherList fetches every up worker's listing at path — a JSON object
// holding an array under key — and concatenates the entries, tagging
// each with its shard. Shards that failed come back as errs; a down
// worker's entries are simply absent.
func gatherList[T any](c *Coordinator, r *http.Request, path, key string, tag func(*T, string)) (merged []T, errs []fanResult, err error) {
	if c.ring.UpCount() == 0 {
		return nil, nil, errUnavailable("no workers available")
	}
	for _, res := range c.fanAll(r.Context(), r, http.MethodGet, path, nil, true) {
		var body map[string][]T
		if res.Err == "" && res.Status != 200 {
			res.Err = fmt.Sprintf("worker %s: %s status %d", res.Worker, path, res.Status)
		}
		if res.Err == "" {
			if err := json.Unmarshal(res.Body, &body); err != nil {
				res.Err = "decoding " + path + " response: " + err.Error()
			}
		}
		if res.Err != "" {
			errs = append(errs, res)
			continue
		}
		for _, e := range body[key] {
			tag(&e, res.Worker)
			merged = append(merged, e)
		}
	}
	return merged, errs, nil
}

// fanList answers a listing endpoint with the sorted merge of the
// shards' listings; missing shards are reported with partial=true and
// an errors list.
func fanList[T any](c *Coordinator, w http.ResponseWriter, r *http.Request, path, key string, tag func(*T, string), less func(a, b T) bool) error {
	merged, errs, err := gatherList(c, r, path, key, tag)
	if err != nil {
		return err
	}
	c.cm.shardErrors.Add(uint64(len(errs)))
	sort.Slice(merged, func(a, b int) bool { return less(merged[a], merged[b]) })
	out := map[string]any{
		key:          merged,
		"workers":    c.ring.N(),
		"workers_up": c.ring.UpCount(),
	}
	if len(errs) > 0 || c.ring.UpCount() < c.ring.N() {
		out["partial"] = true
	}
	if len(errs) > 0 {
		out["errors"] = errs
	}
	writeJSON(w, 200, out)
	return nil
}

// shardDoc is a document in the coordinator's merged /docs listing.
type shardDoc struct {
	docInfo
	Worker string `json:"worker"`
}

func (c *Coordinator) handleDocListFan(w http.ResponseWriter, r *http.Request) error {
	return fanList(c, w, r, "/docs", "docs",
		func(d *shardDoc, worker string) { d.Worker = worker },
		func(a, b shardDoc) bool { return a.Name < b.Name })
}

func (c *Coordinator) handleViewListFan(w http.ResponseWriter, r *http.Request) error {
	return fanList(c, w, r, "/views", "views",
		func(v *map[string]any, worker string) { (*v)["worker"] = worker },
		func(a, b map[string]any) bool {
			da, _ := a["doc"].(string)
			db, _ := b["doc"].(string)
			if da != db {
				return da < db
			}
			qa, _ := a["query"].(string)
			qb, _ := b["query"].(string)
			return qa < qb
		})
}

// handleQueryPutFan registers a prepared query on every shard. The
// registry is replicated, not sharded: any document may be asked any
// query, so registration refuses to run unless every configured worker
// is up, and rolls the registration back if any shard rejects it.
func (c *Coordinator) handleQueryPutFan(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return errBadRequest("reading body: " + err.Error())
	}
	name := r.PathValue("name")
	if up := c.ring.UpCount(); up < c.ring.N() {
		return errUnavailable(fmt.Sprintf(
			"cluster degraded: %d/%d workers up; query registration needs every shard", up, c.ring.N()))
	}
	ctx := r.Context()
	path := "/queries/" + url.PathEscape(name)
	results := c.fanAll(ctx, r, http.MethodPut, path, body, false)
	var failed, succeeded []fanResult
	for _, res := range results {
		if res.Err == "" && res.Status == 200 {
			succeeded = append(succeeded, res)
		} else {
			failed = append(failed, res)
		}
	}
	if len(failed) == 0 {
		var info map[string]any
		if err := json.Unmarshal(succeeded[0].Body, &info); err != nil {
			info = map[string]any{"name": name}
		}
		info["workers"] = c.ring.N()
		writeJSON(w, 200, info)
		return nil
	}
	// Partial registration is worse than no registration: delete from the
	// shards that accepted it (best-effort) before reporting failure.
	if len(succeeded) > 0 {
		c.fanAll(ctx, r, http.MethodDelete, path, nil, false)
	}
	c.cm.shardErrors.Add(uint64(len(failed)))
	// All shards rejecting identically (e.g. a lint error) is the
	// worker's verdict, not a gateway fault: relay it as-is.
	if len(succeeded) == 0 && allSameStatus(failed) && failed[0].Err == "" {
		var body map[string]any
		if err := json.Unmarshal(failed[0].Body, &body); err != nil {
			body = map[string]any{"error": fmt.Sprintf("query registration failed with status %d", failed[0].Status)}
		}
		body["worker"] = failed[0].Worker
		writeJSON(w, failed[0].Status, body)
		return nil
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error":   fmt.Sprintf("query registration failed on %d/%d workers (rolled back)", len(failed), c.ring.N()),
		"workers": results,
	})
	return nil
}

// handleQueryDeleteFan unregisters a query on every shard.
func (c *Coordinator) handleQueryDeleteFan(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if up := c.ring.UpCount(); up < c.ring.N() {
		return errUnavailable(fmt.Sprintf(
			"cluster degraded: %d/%d workers up; query deletion needs every shard", up, c.ring.N()))
	}
	results := c.fanAll(r.Context(), r, http.MethodDelete, "/queries/"+url.PathEscape(name), nil, false)
	notFound, viewsDropped := 0, 0
	var failed []fanResult
	for _, res := range results {
		switch {
		case res.Err == "" && res.Status == 200:
			var body struct {
				ViewsDropped int `json:"views_dropped"`
			}
			if err := json.Unmarshal(res.Body, &body); err == nil {
				viewsDropped += body.ViewsDropped
			}
		case res.Err == "" && res.Status == 404:
			notFound++
		default:
			failed = append(failed, res)
		}
	}
	if len(failed) > 0 {
		c.cm.shardErrors.Add(uint64(len(failed)))
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":   fmt.Sprintf("query deletion failed on %d/%d workers", len(failed), c.ring.N()),
			"workers": results,
		})
		return nil
	}
	if notFound == c.ring.N() {
		return errNotFound("query")
	}
	writeJSON(w, 200, map[string]any{
		"status":        "deleted",
		"workers":       c.ring.N(),
		"views_dropped": viewsDropped,
	})
	return nil
}

// handleAdminFan broadcasts an admin POST (flush-caches, snapshot) to
// every up worker under the path it arrived on and reports per-worker
// outcomes.
func (c *Coordinator) handleAdminFan(w http.ResponseWriter, r *http.Request) error {
	if c.ring.UpCount() == 0 {
		return errUnavailable("no workers available")
	}
	results := c.fanAll(r.Context(), r, http.MethodPost, r.URL.Path, nil, true)
	status := 200
	workers := make([]map[string]any, 0, len(results))
	for _, res := range results {
		entry := map[string]any{"worker": res.Worker, "status": res.Status}
		if res.Err != "" {
			entry["error"] = res.Err
			status = http.StatusBadGateway
			c.cm.shardErrors.Add(1)
		} else if res.Status != 200 {
			status = http.StatusBadGateway
			c.cm.shardErrors.Add(1)
		} else {
			var body map[string]any
			if err := json.Unmarshal(res.Body, &body); err == nil {
				entry["response"] = body
			}
		}
		workers = append(workers, entry)
	}
	writeJSON(w, status, map[string]any{"workers": workers})
	return nil
}

// checkQuery verifies a prepared query exists before a scatter, so a
// typo'd name is one clean 404 instead of N identical shard errors.
// Best-effort: any failure other than a definite 404 lets the scatter
// proceed and speak for itself.
func (c *Coordinator) checkQuery(ctx context.Context, r *http.Request, name string) error {
	wk := c.ring.FirstUp()
	if wk < 0 {
		return errUnavailable("no workers available")
	}
	resp, release, err := c.client.GetIdempotent(ctx, wk, func(ctx context.Context) (*http.Request, error) {
		return c.outgoing(ctx, http.MethodGet, wk, "/queries/"+url.PathEscape(name), nil, nil, r)
	})
	if err != nil {
		return nil
	}
	defer release()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode == 404 {
		return errNotFound("query " + name)
	}
	return nil
}

func allSameStatus(rs []fanResult) bool {
	for _, r := range rs {
		if r.Status != rs[0].Status {
			return false
		}
	}
	return len(rs) > 0
}

// splitDocs parses a comma-separated ?docs= list, trimming blanks and
// dropping duplicates while preserving first-seen order.
func splitDocs(s string) []string {
	parts := strings.Split(s, ",")
	seen := make(map[string]bool, len(parts))
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
