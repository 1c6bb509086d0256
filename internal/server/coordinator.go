package server

// The cluster coordinator: spannerd -coordinator serves the same HTTP
// API as a single worker, but owns no documents itself. Every document
// name hashes onto one worker via the consistent-hash ring
// (internal/cluster); the coordinator routes single-document requests
// to the owner, fans query registrations out to every shard, and
// scatter-gathers /batch and multi-document /stream across the shards
// that own the requested documents. A health prober keeps an up/down
// view of the workers; down shards fail fast with the 502/503/504
// taxonomy instead of dragging the whole fan-out down.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"docspanner/internal/cluster"
)

// CoordinatorConfig tunes a Coordinator. Workers is required; the zero
// value of everything else gets the same defaults a worker Server uses
// where they overlap.
type CoordinatorConfig struct {
	// Workers are the worker base URLs (http://host:port) in a stable
	// order — the order is part of the placement function, so keep it
	// identical across coordinator restarts.
	Workers []string
	// VNodes is the virtual-node count per worker on the hash ring.
	// Default cluster.DefaultVNodes.
	VNodes int
	// ProbeInterval is the health-probe period per worker. Default 500ms.
	ProbeInterval time.Duration
	// RequestTimeout / MaxTimeout mirror the worker Config: the default
	// and cap for the ?timeout= deadline that bounds a whole fan-out.
	RequestTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// MaxPerWorkerInflight bounds concurrent proxied requests per worker
	// (backpressure toward any one shard). Default 32.
	MaxPerWorkerInflight int
	// RetryMax / RetryBase / RetryCap tune idempotent-read retries; see
	// cluster.ClientConfig. Defaults 2 / 25ms / 500ms.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold / BreakerCooldown tune the per-worker circuit
	// breaker. Defaults 5 / 1s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Transport overrides the worker-facing HTTP transport (tests).
	Transport http.RoundTripper
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// Coordinator is the cluster-mode spannerd HTTP handler. Create one
// with NewCoordinator and mount it on an http.Server; Close stops the
// health prober.
type Coordinator struct {
	ring    *cluster.Ring
	client  *cluster.Client
	prober  *cluster.Prober
	metrics *metrics
	cm      coordMetrics
	mux     *http.ServeMux

	closeOnce sync.Once
}

// NewCoordinator builds the ring, client pool, and health prober over
// the configured workers, probes every worker once (so the first
// request already sees a realistic up/down view), and starts the
// background probe loops.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := cluster.NewRing(cfg.Workers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ring: ring,
		client: cluster.NewClient(ring, cluster.ClientConfig{
			MaxInflight:      cfg.MaxPerWorkerInflight,
			RetryMax:         cfg.RetryMax,
			RetryBase:        cfg.RetryBase,
			RetryCap:         cfg.RetryCap,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			Transport:        cfg.Transport,
		}),
		prober:  cluster.NewProber(ring, cfg.ProbeInterval),
		metrics: newMetrics(),
	}
	pipe := &pipeline{
		role:       "coordinator",
		logger:     cfg.Logger,
		metrics:    c.metrics,
		maxBody:    cfg.MaxBodyBytes,
		timeout:    cfg.RequestTimeout,
		maxTimeout: cfg.MaxTimeout,
		timeoutMsg: "cluster fan-out deadline exceeded",
	}
	// Every coordinator request is bounded: whatever it fans out runs
	// under the one ?timeout= deadline.
	c.mux = pipe.mount(func(rt route) (handlerFunc, bool) {
		return func(w http.ResponseWriter, r *http.Request) error { return rt.coord(c, w, r) }, true
	})
	c.prober.Start()
	return c, nil
}

// Close stops the health prober. Safe to call multiple times; the
// Coordinator keeps serving afterwards with a frozen up/down view.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { c.prober.Stop() })
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Ring exposes the placement ring (tests and cmd wiring).
func (c *Coordinator) Ring() *cluster.Ring { return c.ring }

// clusterErr maps a worker-client error onto the coordinator's HTTP
// taxonomy: 503 (+Retry-After) for down/breaker-open shards, 504 for a
// deadline spent inside the fan-out, 499 for the client hanging up,
// 502 for a shard that was reachable on paper but failed in transit.
func clusterErr(err error) error {
	st := cluster.StatusFor(err)
	he := &httpError{status: st, message: err.Error()}
	if st == http.StatusServiceUnavailable {
		he.retryAfter = 1
	}
	return he
}

// --- observability ---

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"status":     "ok",
		"role":       "coordinator",
		"uptime":     time.Since(c.metrics.start).String(),
		"workers":    c.ring.N(),
		"workers_up": c.ring.UpCount(),
	})
	return nil
}

// handleReadyz: a coordinator with zero routable workers cannot serve
// anything — tell the load balancer so.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	up := c.ring.UpCount()
	if up == 0 {
		return errUnavailable("no workers available")
	}
	st := "serving"
	if up < c.ring.N() {
		st = "degraded"
	}
	writeJSON(w, 200, map[string]any{
		"status":     st,
		"workers":    c.ring.N(),
		"workers_up": up,
	})
	return nil
}

// handleCluster exposes the ring: per-worker probe status and breaker
// state, and with ?key=<doc> the placement of one document (CI and
// operators use this to find the shard that owns a name).
func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) error {
	if key := r.URL.Query().Get("key"); key != "" {
		i := c.ring.Owner(key)
		writeJSON(w, 200, map[string]any{
			"key":          key,
			"worker":       c.ring.URL(i),
			"worker_index": i,
			"up":           c.ring.Up(i),
		})
		return nil
	}
	sts := c.prober.Status()
	workers := make([]map[string]any, len(sts))
	for i, st := range sts {
		workers[i] = map[string]any{
			"url":         st.URL,
			"up":          st.Up,
			"error":       st.Err,
			"last_probe":  st.LastProbe,
			"rtt":         st.RTT.String(),
			"docs":        st.Docs,
			"queries":     st.Queries,
			"views":       st.Views,
			"transitions": st.Transitions,
			"breaker":     c.client.Breaker(i).State(),
		}
	}
	writeJSON(w, 200, map[string]any{
		"vnodes":     c.ring.VNodes(),
		"workers":    workers,
		"total":      c.ring.N(),
		"workers_up": c.ring.UpCount(),
	})
	return nil
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.writeProm(w)
	return nil
}

func (c *Coordinator) handleVarz(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, 200, map[string]any{
		"coordinator": map[string]any{
			"uptime":             time.Since(c.metrics.start).String(),
			"inflight":           c.metrics.inflight.Load(),
			"timeouts":           c.metrics.timeouts.Load(),
			"disconnects":        c.metrics.disconnects.Load(),
			"merged_tuples":      c.cm.mergedTuples.Load(),
			"shard_errors":       c.cm.shardErrors.Load(),
			"retries":            c.client.Retries.Load(),
			"breaker_fast_fails": c.client.BreakerFastFails.Load(),
			"down_fast_fails":    c.client.DownFastFails.Load(),
			"vnodes":             c.ring.VNodes(),
			"workers":            c.ring.N(),
			"workers_up":         c.ring.UpCount(),
		},
		"workers": c.prober.Status(),
	})
	return nil
}

// coordMetrics holds the counters only a coordinator has; requests,
// latencies, inflight, timeouts and disconnects live in the metrics
// registry both roles share. Cluster-wide document/query/view gauges
// come from the prober's cached worker statuses, so a /metrics scrape
// never fans out.
type coordMetrics struct {
	mergedTuples atomic.Uint64 // tuple frames relayed through merged streams
	shardErrors  atomic.Uint64 // per-shard failures inside scatter-gathers
}

// writeProm renders the coordinator's Prometheus exposition: its own
// request counters plus the cluster aggregates (worker up/down, probe
// RTT, summed object counts) from the prober's cache.
func (c *Coordinator) writeProm(w io.Writer) {
	m := c.metrics
	fmt.Fprintf(w, "# HELP spannerd_coordinator_uptime_seconds Time since the coordinator started.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_uptime_seconds gauge\n")
	fmt.Fprintf(w, "spannerd_coordinator_uptime_seconds %g\n", time.Since(m.start).Seconds())

	sts := c.prober.Status()
	var docs, queries, views int
	up := 0
	for _, st := range sts {
		if st.Up {
			up++
			docs += st.Docs
			queries = max(queries, st.Queries)
			views += st.Views
		}
	}
	fmt.Fprintf(w, "# HELP spannerd_cluster_workers Configured workers on the ring.\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_workers gauge\n")
	fmt.Fprintf(w, "spannerd_cluster_workers %d\n", c.ring.N())
	fmt.Fprintf(w, "# HELP spannerd_cluster_workers_up Workers currently passing health probes.\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_workers_up gauge\n")
	fmt.Fprintf(w, "spannerd_cluster_workers_up %d\n", up)
	fmt.Fprintf(w, "# HELP spannerd_cluster_documents Documents across up shards (prober-cached).\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_documents gauge\n")
	fmt.Fprintf(w, "spannerd_cluster_documents %d\n", docs)
	fmt.Fprintf(w, "# HELP spannerd_cluster_queries Prepared queries (every shard holds the full registry; max over up shards).\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_queries gauge\n")
	fmt.Fprintf(w, "spannerd_cluster_queries %d\n", queries)
	fmt.Fprintf(w, "# HELP spannerd_cluster_views Live views across up shards (prober-cached).\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_views gauge\n")
	fmt.Fprintf(w, "spannerd_cluster_views %d\n", views)

	fmt.Fprintf(w, "# HELP spannerd_cluster_worker_up Per-worker probe verdict (1 = routable).\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_worker_up gauge\n")
	for _, st := range sts {
		v := 0
		if st.Up {
			v = 1
		}
		fmt.Fprintf(w, "spannerd_cluster_worker_up{worker=%q} %d\n", st.URL, v)
	}
	fmt.Fprintf(w, "# HELP spannerd_cluster_worker_probe_rtt_seconds Last health-probe round trip per worker.\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_worker_probe_rtt_seconds gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "spannerd_cluster_worker_probe_rtt_seconds{worker=%q} %g\n", st.URL, st.RTT.Seconds())
	}
	fmt.Fprintf(w, "# HELP spannerd_cluster_worker_transitions_total Up/down flips per worker since the prober started.\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_worker_transitions_total counter\n")
	for _, st := range sts {
		fmt.Fprintf(w, "spannerd_cluster_worker_transitions_total{worker=%q} %d\n", st.URL, st.Transitions)
	}
	fmt.Fprintf(w, "# HELP spannerd_cluster_breaker_open Per-worker circuit breaker state (1 = open, refusing requests).\n")
	fmt.Fprintf(w, "# TYPE spannerd_cluster_breaker_open gauge\n")
	for i := 0; i < c.ring.N(); i++ {
		v := 0
		if c.client.Breaker(i).State() == "open" {
			v = 1
		}
		fmt.Fprintf(w, "spannerd_cluster_breaker_open{worker=%q} %d\n", c.ring.URL(i), v)
	}

	fmt.Fprintf(w, "# HELP spannerd_coordinator_inflight_requests Requests currently being coordinated.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_inflight_requests gauge\n")
	fmt.Fprintf(w, "spannerd_coordinator_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_retries_total Idempotent reads retried against workers.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_retries_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_retries_total %d\n", c.client.Retries.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_breaker_fast_fails_total Requests refused by an open per-worker breaker.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_breaker_fast_fails_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_breaker_fast_fails_total %d\n", c.client.BreakerFastFails.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_down_fast_fails_total Requests refused because the owning worker is down.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_down_fast_fails_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_down_fast_fails_total %d\n", c.client.DownFastFails.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_timeouts_total Fan-outs cancelled by their deadline.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_timeouts_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_disconnects_total Merged streams aborted by client disconnect.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_disconnects_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_disconnects_total %d\n", m.disconnects.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_merged_tuples_total Tuple frames relayed through merged multi-document streams.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_merged_tuples_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_merged_tuples_total %d\n", c.cm.mergedTuples.Load())
	fmt.Fprintf(w, "# HELP spannerd_coordinator_shard_errors_total Per-shard failures inside scatter-gathers (partial results).\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_shard_errors_total counter\n")
	fmt.Fprintf(w, "spannerd_coordinator_shard_errors_total %d\n", c.cm.shardErrors.Load())

	fmt.Fprintf(w, "# HELP spannerd_coordinator_requests_total Requests served by the coordinator, by handler and status code.\n")
	fmt.Fprintf(w, "# TYPE spannerd_coordinator_requests_total counter\n")
	for _, k := range sortedKeys(&m.mu, m.requests) {
		h, code, _ := cut(k)
		fmt.Fprintf(w, "spannerd_coordinator_requests_total{handler=%q,code=%q} %d\n", h, code, m.get(m.requests, k))
	}

	writeHistograms(w, "spannerd_coordinator_request_duration_seconds",
		"Wall-clock coordinator request latency by handler (includes the worker hop).",
		&m.mu, m.handlerLat, func(k string) string { return fmt.Sprintf("handler=%q", k) })
}
