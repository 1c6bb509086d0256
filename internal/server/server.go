// Package server implements spannerd, an HTTP/JSON document-spanner
// extraction service over the docspanner library: a persistent store of
// named (optionally SLP-compressed) documents supporting in-place CDE
// edits, a registry of prepared queries (linted and planned once at
// registration), evaluation endpoints — materialized, counting,
// NDJSON streaming off the constant-delay enumerator, and batch over
// document sets on a worker pool — plus live metrics (/metrics, /varz,
// /healthz) exposing per-query latency histograms and the hit rate of
// the SLP matrix tables. A registered query owns everything derived from
// it; unregistering it frees all of it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"docspanner"
	"docspanner/internal/slpmatch"
	"docspanner/internal/storage"
	"docspanner/internal/views"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds the number of evaluation requests running at
	// once (eval, count, stream, batch, warm); further requests wait for
	// a slot until their context expires, then get 503. Default 64.
	MaxConcurrent int
	// RequestTimeout is the default evaluation deadline per request;
	// clients may lower or raise it with ?timeout=, capped by MaxTimeout.
	// Default 30s.
	RequestTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default 5m.
	MaxTimeout time.Duration
	// LintFailOn rejects query registrations whose lint diagnostics reach
	// this severity: "info" | "warning" | "error" | "never". Default
	// "error".
	LintFailOn string
	// MaxBodyBytes bounds request bodies (document ingests). Default 64 MiB.
	MaxBodyBytes int64
	// ViewRefresh selects how live views follow document mutations:
	// "sync" (default) refreshes the document's views inside the mutating
	// request, so the response already reflects refreshed views; "async"
	// hands the document to a background refresher and returns
	// immediately — views converge shortly after (version-monotonic, so
	// coalesced or reordered refreshes are harmless).
	ViewRefresh string
	// MaxMaterialize caps tuples materialized per view version; counts
	// stay exact above it, only tuple lists and /changes diffs are
	// withheld. Default 65536.
	MaxMaterialize int
	// ViewHistory is how many past versions each view keeps for /changes
	// diffs. Default 8.
	ViewHistory int
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Storage is the durability backend. Nil serves purely in-memory
	// (storage.NewMemory()); a disk backend makes every mutation durable
	// and recovers the store, registry, and views on New. The Server owns
	// the backend from here on: Close closes it.
	Storage storage.Backend
}

func (c Config) withDefaults() (Config, error) {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.LintFailOn == "" {
		c.LintFailOn = "error"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	switch c.ViewRefresh {
	case "":
		c.ViewRefresh = "sync"
	case "sync", "async":
	default:
		return c, fmt.Errorf("server: ViewRefresh %q (want sync or async)", c.ViewRefresh)
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.Storage == nil {
		c.Storage = storage.NewMemory()
	}
	return c, nil
}

// Server is the spannerd HTTP handler. Create one with New and mount it
// on an http.Server (cmd/spannerd does exactly that); it is safe for
// use by any number of concurrent requests.
type Server struct {
	cfg     Config
	storage storage.Backend
	store   *docStore
	queries *registry
	views   *views.Set
	metrics *metrics
	sem     chan struct{} // concurrency limiter of the evaluation routes
	mux     *http.ServeMux

	// Async view refresher: mutations enqueue their docChange; the
	// worker refreshes that document's views from the then-current
	// snapshot. Version monotonicity makes coalesced and reordered
	// deliveries safe.
	refreshQ  chan docChange
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Server from the config, recovering the persisted state
// (documents, prepared queries, live views) from the storage backend.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	failOn, err := parseFailOn(cfg.LintFailOn)
	if err != nil {
		return nil, err
	}
	state, err := cfg.Storage.Load()
	if err != nil {
		return nil, fmt.Errorf("server: loading storage: %w", err)
	}
	store, err := newDocStore(state, cfg.Storage)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		storage: cfg.Storage,
		store:   store,
		queries: newRegistry(failOn, cfg.Storage),
		views:   views.NewSet(views.Config{MaxMaterialize: cfg.MaxMaterialize, History: cfg.ViewHistory}),
		metrics: newMetrics(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		stop:    make(chan struct{}),
	}
	for _, qs := range state.SortedQueries() {
		if err := s.queries.recover(qs); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if err := s.rehydrateViews(state); err != nil {
		return nil, err
	}
	if cfg.ViewRefresh == "async" {
		s.refreshQ = make(chan docChange, 1024)
		s.wg.Add(1)
		go s.refreshWorker()
	}
	pipe := &pipeline{
		role:       "worker",
		logger:     cfg.Logger,
		metrics:    s.metrics,
		maxBody:    cfg.MaxBodyBytes,
		timeout:    cfg.RequestTimeout,
		maxTimeout: cfg.MaxTimeout,
		timeoutMsg: "evaluation deadline exceeded",
		sem:        s.sem,
	}
	s.mux = pipe.mount(func(rt route) (handlerFunc, bool) {
		if rt.worker == nil {
			return nil, false
		}
		return func(w http.ResponseWriter, r *http.Request) error { return rt.worker(s, w, r) }, rt.limited
	})
	return s, nil
}

// rehydrateViews re-registers the persisted live views and refreshes
// each to the recovered document snapshot at its recovered version —
// no version bump, no time.Now() stamp drift, no spurious /changes
// delta: a client whose cursor is at the current version sees an empty
// diff across the restart.
func (s *Server) rehydrateViews(state *storage.State) error {
	for _, k := range state.SortedViews() {
		d, err := s.store.get(k.Doc)
		if err != nil {
			return fmt.Errorf("server: recovered view (%q, %q): document missing", k.Doc, k.Query)
		}
		p, err := s.queries.get(k.Query)
		if err != nil {
			return fmt.Errorf("server: recovered view (%q, %q): query missing", k.Doc, k.Query)
		}
		ix, err := p.query.Index()
		if err != nil {
			return fmt.Errorf("server: recovered view (%q, %q): %w", k.Doc, k.Query, err)
		}
		// No persist callback: the registration is already in the log or
		// snapshot being recovered.
		v, _, _ := s.views.Register(k.Doc, k.Query, ix, nil)
		v.Refresh(d.doc, d.version)
	}
	return nil
}

// Close stops the background view refresher (if any), waits for it, and
// closes the storage backend — flushing the write-ahead log. Safe to
// call multiple times; the Server keeps serving reads afterwards but
// async view refreshes no longer run and mutations will fail.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if err := s.storage.Close(); err != nil {
			s.cfg.Logger.Error("closing storage backend", slog.String("error", err.Error()))
		}
	})
}

func (s *Server) refreshWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case c := <-s.refreshQ:
			s.applyDocChange(c)
		}
	}
}

// refreshDocViews brings every view over the named document up to the
// store's current snapshot. Stale requests (the document moved on, or a
// racing worker already applied this version) are skipped by the views'
// version monotonicity.
func (s *Server) refreshDocViews(name string) {
	d, err := s.store.get(name)
	if err != nil {
		return // deleted since enqueued; DropDoc already ran
	}
	for _, v := range s.views.ForDoc(name) {
		if res, did := v.Refresh(d.doc, d.version); did {
			s.metrics.viewRefresh(v.Key().Doc, v.Key().Query, res.Elapsed)
		}
	}
}

// docChange is a visible mutation of a document: its name, and whether
// it superseded an earlier version of it. A compress of a document that
// is already compressed says so too; that costs at most a sweep that was
// due anyway.
type docChange struct {
	name       string
	superseded bool
}

// applyDocChange runs the side effects of a mutation: view maintenance,
// then, when the mutation superseded a version, a sweep of the query
// tables — after the views, whose WarmDelta still reads the old
// version's nodes.
func (s *Server) applyDocChange(c docChange) {
	s.refreshDocViews(c.name)
	if c.superseded {
		s.forgetSuperseded()
	}
}

// notifyDocChanged triggers the side effects of a successful mutation
// that produced sd — inline in sync mode, queued in async mode. A full
// queue falls back to running them synchronously rather than dropping
// the notification (a dropped edit would leave views stale until the
// next mutation).
func (s *Server) notifyDocChanged(sd *storedDoc) {
	c := docChange{name: sd.name, superseded: sd.version > 1}
	if s.refreshQ == nil {
		s.applyDocChange(c)
		return
	}
	select {
	case s.refreshQ <- c:
	default:
		s.applyDocChange(c)
	}
}

// forgetSuperseded sweeps the compressed-evaluation tables of every
// registered query down to the nodes the store's current documents
// reach, so superseded and deleted versions stop holding memory. Each
// table sweeps only once it has outgrown its budget (slpmatch.Retain),
// so this is cheap to call after every such mutation.
func (s *Server) forgetSuperseded() {
	s.queries.retain(s.store.documents())
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// httpError is an error with an HTTP status; handlers return it to get
// a structured JSON error response. retryAfter > 0 adds a Retry-After
// header (seconds) — the coordinator's backoff honors it, so a loaded
// worker can push fan-out pressure back instead of being hammered.
type httpError struct {
	status     int
	message    string
	retryAfter int
	diags      []docspanner.Diagnostic
}

func (e *httpError) Error() string { return e.message }

func errNotFound(what string) error  { return &httpError{status: 404, message: what + " not found"} }
func errBadRequest(msg string) error { return &httpError{status: 400, message: msg} }
func errUnavailable(msg string) error {
	return &httpError{status: 503, message: msg, retryAfter: 1}
}

// syncFailedError reports a mutation that was applied in memory and
// appended to the write-ahead log before its durability barrier (fsync)
// failed: the write is visible and replays if the log survives, but the
// server cannot promise it is on disk. Handlers run their post-mutation
// side effects (view maintenance, cascade drops) before surfacing it —
// skipping them would leave memory inconsistent with a mutation that
// actually happened — and renderError turns it into an explicit 500
// plus the spannerd_storage_sync_failures_total counter, so the client
// is never told the write didn't happen.
type syncFailedError struct {
	what string
	err  error
}

func (e *syncFailedError) Error() string {
	return fmt.Sprintf("%s applied and logged, but the durability barrier failed: %v", e.what, e.err)
}

func (e *syncFailedError) Unwrap() error { return e.err }

func syncFailed(what string, err error) error { return &syncFailedError{what: what, err: err} }

// isSyncFailed tells a handler whether an error still demands its
// post-mutation side effects.
func isSyncFailed(err error) bool {
	var sf *syncFailedError
	return errors.As(err, &sf)
}

// --- observability handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(s.metrics.start).String(),
		"docs":    s.store.len(),
		"queries": s.queries.len(),
		"views":   s.views.Len(),
	})
	return nil
}

// handleReadyz answers "route traffic here". A Server that exists is
// by construction done recovering (New replays the WAL before
// returning), so this always says serving; the recovering 503 comes
// from the BootGate that fronts the listener while New runs. /healthz
// stays liveness-only — it answers ok during recovery too, so process
// supervisors don't kill a worker for replaying a long log.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"status":  "serving",
		"docs":    s.store.len(),
		"queries": s.queries.len(),
		"views":   s.views.Len(),
	})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writeProm(w, s.store.len(), s.queries.len(), s.views.Len(), s.queries.cachedNodes(), s.storage.Stats())
	return nil
}

// handleVarz renders the process expvars plus the server's own state as
// one JSON object. Hand-rolled (expvar.Do instead of expvar.Publish)
// because Publish is global and panics on duplicate names — multiple
// Server instances in one process, as in tests, must not fight over it.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	mh, mm := slpmatch.CacheStats()
	wr, wu := slpmatch.WarmDeltaStats()
	own, _ := json.Marshal(map[string]any{
		"docs":              s.store.len(),
		"queries":           s.queries.len(),
		"views":             s.views.Len(),
		"view_refreshes":    s.metrics.viewRefreshes.Load(),
		"sync_failures":     s.metrics.syncFailures.Load(),
		"warm_recomputed":   wr,
		"warm_reused":       wu,
		"grammar_nodes":     s.store.grammarSize(),
		"inflight":          s.metrics.inflight.Load(),
		"rejected":          s.metrics.rejected.Load(),
		"timeouts":          s.metrics.timeouts.Load(),
		"disconnects":       s.metrics.disconnects.Load(),
		"matrix_cache_hits": mh,
		"matrix_cache_miss": mm,
		"index_nodes":       s.queries.cachedNodes(),
		"index_forgotten":   slpmatch.ForgottenNodes(),
	})
	if !first {
		fmt.Fprintf(w, ",\n")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "spannerd", own)
	return nil
}

func (s *Server) handleFlushCaches(w http.ResponseWriter, _ *http.Request) error {
	// Safe while evaluations and view refreshes are in flight: the tables
	// are emptied in place, so a live view and /eval keep sharing the
	// query's one table set afterwards (see docspanner.Query.Flush).
	s.queries.flush()
	writeJSON(w, 200, map[string]string{"status": "flushed"})
	return nil
}

// handleSnapshot forces a storage snapshot and log rotation now (a
// no-op on the memory backend). Useful before planned restarts: the
// next recovery loads the snapshot instead of replaying the whole log.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) error {
	if err := s.storage.Snapshot(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	st := s.storage.Stats()
	writeJSON(w, 200, map[string]any{
		"status":         "ok",
		"backend":        st.Kind,
		"persistent":     st.Persistent,
		"snapshots":      st.Snapshots,
		"snapshot_bytes": st.SnapshotBytes,
		"wal_size_bytes": st.WALSizeBytes,
	})
	return nil
}

// discardHandler is a slog.Handler that drops everything (slog's
// DiscardHandler arrived in go 1.24; this repo targets 1.23).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
