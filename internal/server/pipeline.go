package server

// The request pipeline both spannerd roles share: one route table from
// which the worker mux and the coordinator mux are derived, and one
// middleware around every handler of either role.

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// handlerFunc is an error-returning HTTP handler; the pipeline renders
// the error.
type handlerFunc func(http.ResponseWriter, *http.Request) error

// route is one row of the HTTP API: what a worker does with the request
// and how the coordinator routes it (to the owning shard, to any up
// shard, or fanned out and merged).
type route struct {
	pattern string // net/http mux pattern
	name    string // handler label on metrics and log lines
	// limited marks evaluation work: a worker runs it under the
	// concurrency limiter and the ?timeout= deadline.
	limited bool
	worker  func(*Server, http.ResponseWriter, *http.Request) error // nil: coordinator-only
	coord   func(*Coordinator, http.ResponseWriter, *http.Request) error
}

var routes = []route{
	{"GET /healthz", "healthz", false, (*Server).handleHealthz, (*Coordinator).handleHealthz},
	{"GET /readyz", "readyz", false, (*Server).handleReadyz, (*Coordinator).handleReadyz},
	{"GET /metrics", "metrics", false, (*Server).handleMetrics, (*Coordinator).handleMetrics},
	{"GET /varz", "varz", false, (*Server).handleVarz, (*Coordinator).handleVarz},
	{"GET /cluster", "cluster", false, nil, (*Coordinator).handleCluster},

	{"GET /docs", "docs.list", false, (*Server).handleDocList, (*Coordinator).handleDocListFan},
	{"PUT /docs/{name}", "docs.put", false, (*Server).handleDocPut, (*Coordinator).proxyDocOwner},
	{"GET /docs/{name}", "docs.get", false, (*Server).handleDocGet, (*Coordinator).proxyDocOwner},
	{"DELETE /docs/{name}", "docs.delete", false, (*Server).handleDocDelete, (*Coordinator).proxyDocOwner},
	{"POST /docs/{name}/compress", "docs.compress", false, (*Server).handleDocCompress, (*Coordinator).proxyDocOwner},
	{"POST /docs/{name}/edit", "docs.edit", false, (*Server).handleDocEdit, (*Coordinator).proxyDocOwner},
	{"POST /docs/{name}/warm", "docs.warm", true, (*Server).handleDocWarm, (*Coordinator).proxyDocOwner},
	{"GET /docs/{name}/views", "views.list", false, (*Server).handleDocViewList, (*Coordinator).proxyDocOwner},
	{"PUT /docs/{name}/views/{query}", "views.put", true, (*Server).handleViewPut, (*Coordinator).proxyDocOwner},
	{"GET /docs/{name}/views/{query}", "views.get", false, (*Server).handleViewGet, (*Coordinator).proxyDocOwner},
	{"DELETE /docs/{name}/views/{query}", "views.delete", false, (*Server).handleViewDelete, (*Coordinator).proxyDocOwner},
	{"GET /docs/{name}/changes", "docs.changes", false, (*Server).handleDocChanges, (*Coordinator).proxyDocOwner},
	{"GET /views", "views.list", false, (*Server).handleViewList, (*Coordinator).handleViewListFan},

	{"GET /queries", "queries.list", false, (*Server).handleQueryList, (*Coordinator).proxyFirstUp},
	{"PUT /queries/{name}", "queries.put", false, (*Server).handleQueryPut, (*Coordinator).handleQueryPutFan},
	{"GET /queries/{name}", "queries.get", false, (*Server).handleQueryGet, (*Coordinator).proxyFirstUp},
	{"DELETE /queries/{name}", "queries.delete", false, (*Server).handleQueryDelete, (*Coordinator).handleQueryDeleteFan},
	{"GET /queries/{name}/explain", "queries.explain", false, (*Server).handleQueryExplain, (*Coordinator).proxyFirstUp},

	{"GET /eval", "eval", true, (*Server).handleEval, (*Coordinator).proxyByDocParam},
	{"GET /count", "count", true, (*Server).handleCount, (*Coordinator).proxyByDocParam},
	{"GET /stream", "stream", true, (*Server).handleStream, (*Coordinator).handleStreamProxy},
	{"POST /batch", "batch", true, (*Server).handleBatch, (*Coordinator).handleBatchScatter},

	{"POST /admin/flush-caches", "admin.flush", false, (*Server).handleFlushCaches, (*Coordinator).handleAdminFan},
	{"POST /admin/snapshot", "admin.snapshot", false, (*Server).handleSnapshot, (*Coordinator).handleAdminFan},
}

// pipeline is the middleware around every handler of either role; the
// fields are where the roles differ.
type pipeline struct {
	role       string // slog attr: "worker" | "coordinator"
	logger     *slog.Logger
	metrics    *metrics
	maxBody    int64
	timeout    time.Duration // default deadline; ?timeout= overrides it
	maxTimeout time.Duration // cap on ?timeout=
	timeoutMsg string        // 504 body
	// sem is the concurrency limiter of bounded routes. Nil on the
	// coordinator, whose backpressure is the per-worker in-flight bound
	// of cluster.Client.
	sem chan struct{}
}

// mount builds a role's mux from the route table. bind picks the role's
// handler for a row (nil: the role does not serve it) and says whether
// the row is bounded — runs under the ?timeout= deadline and, where the
// role has a limiter, a concurrency slot.
func (p *pipeline) mount(bind func(route) (h handlerFunc, bounded bool)) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		if h, bounded := bind(rt); h != nil {
			mux.HandleFunc(rt.pattern, p.wrap(rt.name, bounded, h))
		}
	}
	return mux
}

// wrap adapts an error-returning handler: it bounds the body, applies
// the deadline and the limiter to bounded routes, tracks
// inflight/latency metrics, renders errors as JSON, and emits one
// structured log line per request. Every request carries an
// X-Request-ID — the client's if it sent one, freshly generated
// otherwise — echoed on the response, stamped onto the inbound header
// (so the coordinator's worker hops carry it), and logged on both
// sides, so one extraction can be trace-stitched across the
// coordinator→worker boundary.
func (p *pipeline) wrap(handler string, bounded bool, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		p.metrics.inflight.Add(1)
		defer p.metrics.inflight.Add(-1)
		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		r.Header.Set("X-Request-ID", reqID)
		r.Body = http.MaxBytesReader(w, r.Body, p.maxBody)
		sw := &statusWriter{ResponseWriter: w}
		if err := p.serve(sw, r, bounded, h); err != nil {
			p.renderError(sw, err)
		}
		if sw.status == 0 {
			sw.status = 200
		}
		d := time.Since(start)
		p.metrics.request(handler, sw.status, d)
		p.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("role", p.role),
			slog.String("handler", handler),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", d),
			slog.String("request_id", reqID),
		)
	}
}

// serve runs h, for bounded routes under the request deadline and a
// limiter slot. Waiting for a slot respects the client disconnecting; a
// slot that does not free up before the deadline is a 503, not a queue
// that grows without bound.
func (p *pipeline) serve(w http.ResponseWriter, r *http.Request, bounded bool, h handlerFunc) error {
	if !bounded {
		return h(w, r)
	}
	ctx, cancel, err := requestContextFor(r, p.timeout, p.maxTimeout)
	if err != nil {
		return err
	}
	defer cancel()
	if p.sem != nil {
		// Prefer a free slot over an already-expired context (select
		// picks randomly among ready cases): a request that can run
		// immediately should fail with its own deadline error, not 503.
		select {
		case p.sem <- struct{}{}:
		default:
			select {
			case p.sem <- struct{}{}:
			case <-ctx.Done():
				p.metrics.rejected.Add(1)
				return errUnavailable("server at max concurrency; retry later")
			}
		}
		defer func() { <-p.sem }()
	}
	return h(w, r.WithContext(ctx))
}

// requestContextFor derives a request's context: the client's context
// plus the default or ?timeout= deadline (capped by max). On the
// coordinator the whole fan-out runs under the one deadline.
func requestContextFor(r *http.Request, def, max time.Duration) (context.Context, context.CancelFunc, error) {
	d := def
	if t := r.URL.Query().Get("timeout"); t != "" {
		td, err := time.ParseDuration(t)
		if err != nil || td <= 0 {
			return nil, nil, errBadRequest(fmt.Sprintf("bad timeout %q (want a positive Go duration like 250ms)", t))
		}
		d = td
	}
	if d > max {
		d = max
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// renderError writes err as the structured JSON error response. A 504
// is counted once however it arose — a bare context deadline or a
// handler's own mapping of a deadline spent inside a fan-out.
func (p *pipeline) renderError(w *statusWriter, err error) {
	if w.status != 0 {
		// Headers already sent (mid-stream failure); the in-band trailer,
		// if any, already told the client.
		return
	}
	he := &httpError{status: 500, message: err.Error()}
	var cast *httpError
	var sf *syncFailedError
	switch {
	case errors.As(err, &sf):
		p.metrics.syncFailures.Add(1)
		he.message = sf.Error()
	case errors.As(err, &cast):
		he = cast
	case errors.Is(err, context.DeadlineExceeded):
		he = &httpError{status: 504, message: p.timeoutMsg}
	case errors.Is(err, context.Canceled):
		he = &httpError{status: 499, message: "request cancelled"}
	}
	if he.status == 504 {
		p.metrics.timeouts.Add(1)
	}
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	body := map[string]any{"error": he.message}
	if he.diags != nil {
		body["diagnostics"] = he.diags
	}
	writeJSON(w, he.status, body)
}

// Request IDs are a random per-process prefix plus a counter: unique
// across a cluster's processes without per-request entropy reads.
var (
	reqIDPrefix = func() string {
		var b [6]byte
		if _, err := crand.Read(b[:]); err != nil {
			return "00deadbeef00"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

// requestID returns the request's X-Request-ID, minting one when the
// client didn't send it. IDs are capped at 128 bytes so a hostile
// header can't bloat every log line it transits.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDCounter.Add(1), 16)
}

// statusWriter records the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// FlushError forwards the error-reporting flush that
// http.ResponseController prefers over plain Flush. Without it the
// wrapper would hide flush failures — the one signal that tells a
// streaming handler its client hung up — behind the error-swallowing
// Flusher path.
func (w *statusWriter) FlushError() error {
	switch f := w.ResponseWriter.(type) {
	case interface{ FlushError() error }:
		return f.FlushError()
	case http.Flusher:
		f.Flush()
		return nil
	}
	return http.ErrNotSupported
}

// streamDisconnect records a mid-stream client disconnect as a 499;
// every streaming handler of either role ends through it once a write
// or flush fails (headers are long gone, so there is nothing to render).
func (m *metrics) streamDisconnect(w http.ResponseWriter) error {
	m.disconnects.Add(1)
	if sw, ok := w.(*statusWriter); ok {
		sw.status = 499
	}
	return nil
}

// endStream writes an NDJSON stream's summary trailer and flushes it.
// The trailer write is the last chance to notice the client vanished:
// when the request context is cancelled before any tuple write fails,
// the enumeration ends cleanly and only this write reports the dead
// connection.
func (m *metrics) endStream(w http.ResponseWriter, enc *ndjsonEncoder, rc *http.ResponseController, summary map[string]any) error {
	line, _ := json.Marshal(summary)
	if enc.WriteLine(line) != nil || enc.Flush(rc) != nil {
		return m.streamDisconnect(w)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
