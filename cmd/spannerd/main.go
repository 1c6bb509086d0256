// Command spannerd serves document-spanner extraction over HTTP/JSON:
// a persistent store of named (optionally SLP-compressed) documents
// with CDE edits, prepared queries (linted and planned at
// registration), materialized / counting / NDJSON-streaming / batch
// evaluation, and live metrics.
//
// Usage:
//
//	spannerd [-addr :8080] [-max-concurrent 64] [-timeout 30s]
//	         [-max-timeout 5m] [-lint-fail-on error] [-log text|json|off]
//	         [-view-refresh sync|async]
//	         [-data-dir DIR] [-fsync always|interval|never]
//	         [-fsync-interval 100ms] [-snapshot-bytes 67108864]
//
// Without -data-dir the store is in-memory and dies with the process.
// With it, every mutation is appended to a checksummed write-ahead log
// under DIR before it is acknowledged, snapshots of the compressed
// document database are cut when the log outgrows -snapshot-bytes (or
// on POST /admin/snapshot), and a restart pointed at the same DIR
// recovers the full state: documents, versions, prepared queries, and
// live views, with no spurious /changes deltas. The listener accepts
// connections from the start: while recovery replays the log, /healthz
// answers ok (alive) but /readyz answers 503 (not routable yet).
//
// Cluster mode:
//
//	spannerd -coordinator -workers http://h1:8081,http://h2:8082
//	         [-vnodes 64] [-replication-probe 500ms]
//
// runs the same HTTP API as a coordinator that owns no documents:
// each document name hashes onto one worker (consistent hashing with
// virtual nodes), single-document requests are routed to the owner,
// query registrations fan out to every shard, and /batch plus
// /stream?docs=a,b (or docs=*) scatter-gather across the owning shards
// with per-worker retries, circuit breaking, and bounded in-flight
// fan-out. GET /cluster shows the ring; /cluster?key=NAME shows one
// document's placement.
//
// Endpoints (see the README's Serving section for a walkthrough):
//
//	GET    /healthz                   liveness + object counts
//	GET    /readyz                    readiness (503 while recovering)
//	GET    /metrics                   Prometheus text format
//	GET    /varz                      expvar JSON
//	GET    /cluster                   ring + worker health (coordinator)
//	GET    /docs                      list documents
//	PUT    /docs/{name}[?compress=1]  ingest body as a document
//	GET    /docs/{name}[?content=1]   metadata, or the text itself
//	DELETE /docs/{name}               drop a document
//	POST   /docs/{name}/compress      re-ingest in SLP-compressed form
//	POST   /docs/{name}/edit          apply a CDE expression {"expr": ...}
//	POST   /docs/{name}/warm?query=q  compressed-evaluation preprocessing
//	GET    /queries                   list prepared queries
//	PUT    /queries/{name}            register {"src": pattern-or-expr, ...}
//	GET    /queries/{name}            the registered query's metadata
//	GET    /queries/{name}/explain    the planned physical query
//	DELETE /queries/{name}            unregister
//	GET    /eval?query=q&doc=d        materialized result (sorted JSON)
//	GET    /count?query=q&doc=d       tuple count
//	GET    /stream?query=q&doc=d      NDJSON, one tuple per line, streamed;
//	                                  docs=a,b (or docs=*) merges documents (coordinator)
//	POST   /batch                     {"query", "docs": [...], "workers"}
//	GET    /views                     list all live views
//	GET    /docs/{name}/views         list the document's live views
//	PUT    /docs/{name}/views/{query} register a live view, refresh inline
//	GET    /docs/{name}/views/{query} version-stamped result [?tuples=1]
//	DELETE /docs/{name}/views/{query} drop a view
//	GET    /docs/{name}/changes       ?query=q&since=V tuple delta, NDJSON
//	POST   /admin/flush-caches        empty the registered queries' matrix tables in place
//	POST   /admin/snapshot            cut a storage snapshot, truncate WAL
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"docspanner/internal/server"
	"docspanner/internal/storage"
)

// heapFloor is never written, so it costs address space and no memory;
// the collector counts it as live and sizes its next cycle from an 8 MiB
// larger heap. A worker whose live heap is a few MB — ad-hoc queries
// come and go and leave nothing behind — otherwise collects some 200
// times a second under registration load (every ~5 MB allocated, 11 %
// of its CPU, and often enough to keep every sync.Pool empty).
var heapFloor = make([]byte, 8<<20)

func main() {
	defer runtime.KeepAlive(heapFloor)
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		maxConc = flag.Int("max-concurrent", 64, "max evaluation requests running at once")
		timeout = flag.Duration("timeout", 30*time.Second, "default evaluation deadline per request")
		maxTO   = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested ?timeout=")
		failOn  = flag.String("lint-fail-on", "error", "reject query registrations at this lint severity: info | warning | error | never")
		logMode = flag.String("log", "text", "request log format: text | json | off")
		refresh = flag.String("view-refresh", "sync", "live-view refresh on document edits: sync | async")

		dataDir   = flag.String("data-dir", "", "persist state under this directory (empty: in-memory only)")
		fsyncMode = flag.String("fsync", "always", "WAL durability: always | interval | never (with -data-dir)")
		fsyncIvl  = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
		snapBytes = flag.Int64("snapshot-bytes", 64<<20, "cut a snapshot when the WAL outgrows this many bytes (<0 disables)")

		coordMode = flag.Bool("coordinator", false, "run as a cluster coordinator over -workers instead of serving documents")
		workers   = flag.String("workers", "", "comma-separated worker base URLs, e.g. http://h1:8081,http://h2:8082 (coordinator mode; order is part of the placement)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per worker on the placement ring (0: default 64)")
		probeIvl  = flag.Duration("replication-probe", 500*time.Millisecond, "per-worker health-probe interval (coordinator mode)")
	)
	flag.Parse()

	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = nil
	default:
		fmt.Fprintf(os.Stderr, "spannerd: unknown -log mode %q (want text, json, or off)\n", *logMode)
		os.Exit(2)
	}

	if *coordMode {
		runCoordinator(*addr, *workers, *vnodes, *probeIvl, *timeout, *maxTO, logger)
		return
	}

	var backend storage.Backend
	if *dataDir != "" {
		policy, err := storage.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spannerd:", err)
			os.Exit(2)
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "spannerd: storage: "+format+"\n", args...)
		}
		backend, err = storage.OpenDisk(storage.DiskOptions{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: *fsyncIvl,
			SnapshotBytes: *snapBytes,
			Logf:          logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spannerd:", err)
			os.Exit(2)
		}
	}

	// Accept connections before recovery: the BootGate answers /healthz
	// ok (the process is alive) and everything else 503 "recovering"
	// until the Server — which replays the WAL/snapshot inside New — is
	// swapped in. A cluster coordinator probing /readyz sees exactly when
	// this worker becomes routable.
	gate := server.NewBootGate()
	hs := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		os.Exit(2)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "spannerd: listening on %s (recovering)\n", *addr)

	srv, err := server.New(server.Config{
		MaxConcurrent:  *maxConc,
		RequestTimeout: *timeout,
		MaxTimeout:     *maxTO,
		LintFailOn:     *failOn,
		Logger:         logger,
		ViewRefresh:    *refresh,
		Storage:        backend,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		_ = hs.Close()
		os.Exit(2)
	}
	defer srv.Close()
	gate.Ready(srv)
	fmt.Fprintf(os.Stderr, "spannerd: serving on %s\n", *addr)

	waitAndShutdown(hs, errCh)
}

func runCoordinator(addr, workers string, vnodes int, probeIvl, timeout, maxTO time.Duration, logger *slog.Logger) {
	var urls []string
	for _, w := range strings.Split(workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, strings.TrimRight(w, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "spannerd: -coordinator needs -workers (comma-separated base URLs)")
		os.Exit(2)
	}
	coord, err := server.NewCoordinator(server.CoordinatorConfig{
		Workers:        urls,
		VNodes:         vnodes,
		ProbeInterval:  probeIvl,
		RequestTimeout: timeout,
		MaxTimeout:     maxTO,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		os.Exit(2)
	}
	defer coord.Close()

	hs := &http.Server{
		Addr:              addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "spannerd: coordinating %d workers on %s\n", len(urls), addr)

	waitAndShutdown(hs, errCh)
}

// waitAndShutdown blocks until SIGINT/SIGTERM or a listener error, then
// drains in-flight requests.
func waitAndShutdown(hs *http.Server, errCh chan error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "spannerd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "spannerd: shutdown:", err)
			os.Exit(1)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "spannerd:", err)
			os.Exit(1)
		}
	}
}
