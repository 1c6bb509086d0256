package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"docspanner/internal/slpmatch"
	"docspanner/internal/storage"
)

// latencyBuckets are the histogram upper bounds in seconds (the last
// implicit bucket is +Inf), spanning constant-delay streaming hits
// (tens of µs) through slow materializing evaluations.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters;
// observations and rendering may run concurrently.
type histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1, last is +Inf
	sumNs  atomic.Int64
	count  atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// quantile returns an estimate of the q-quantile in seconds (upper
// bucket bound interpolation; good enough for p50/p99 reporting).
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return latencyBuckets[len(latencyBuckets)-1] * 2
		}
	}
	return latencyBuckets[len(latencyBuckets)-1] * 2
}

// metrics is the server's observability state: request and tuple
// counters, per-handler and per-query latency histograms, and the
// process-wide cache statistics it snapshots on render. All methods are
// safe for concurrent use.
type metrics struct {
	start time.Time

	mu         sync.Mutex
	requests   map[string]*atomic.Uint64 // "handler|code" -> count
	tuples     map[string]*atomic.Uint64 // "query|kind" -> tuples emitted
	handlerLat map[string]*histogram     // handler -> latency
	queryLat   map[string]*histogram     // "query|kind" -> latency
	viewLat    map[string]*histogram     // "doc|query" -> view refresh latency

	inflight      atomic.Int64
	rejected      atomic.Uint64 // requests refused by the concurrency limiter
	timeouts      atomic.Uint64 // requests cancelled by deadline
	disconnects   atomic.Uint64 // streams aborted by client disconnect (499)
	viewRefreshes atomic.Uint64 // view refreshes performed (stale skips excluded)
	syncFailures  atomic.Uint64 // mutations applied and logged whose fsync barrier failed
}

func newMetrics() *metrics {
	return &metrics{
		start:      time.Now(),
		requests:   map[string]*atomic.Uint64{},
		tuples:     map[string]*atomic.Uint64{},
		handlerLat: map[string]*histogram{},
		queryLat:   map[string]*histogram{},
		viewLat:    map[string]*histogram{},
	}
}

func (m *metrics) counter(table map[string]*atomic.Uint64, key string) *atomic.Uint64 {
	m.mu.Lock()
	c, ok := table[key]
	if !ok {
		c = &atomic.Uint64{}
		table[key] = c
	}
	m.mu.Unlock()
	return c
}

func (m *metrics) histogramFor(table map[string]*histogram, key string) *histogram {
	m.mu.Lock()
	h, ok := table[key]
	if !ok {
		h = newHistogram()
		table[key] = h
	}
	m.mu.Unlock()
	return h
}

func (m *metrics) request(handler string, code int, d time.Duration) {
	m.counter(m.requests, fmt.Sprintf("%s|%d", handler, code)).Add(1)
	m.histogramFor(m.handlerLat, handler).observe(d)
}

func (m *metrics) query(name, kind string, tuples int, d time.Duration) {
	m.counter(m.tuples, name+"|"+kind).Add(uint64(tuples))
	m.histogramFor(m.queryLat, name+"|"+kind).observe(d)
}

func (m *metrics) viewRefresh(doc, query string, d time.Duration) {
	m.viewRefreshes.Add(1)
	m.histogramFor(m.viewLat, doc+"|"+query).observe(d)
}

// sortedKeys snapshots a label table's keys under the lock for
// deterministic exposition.
func sortedKeys[V any](mu *sync.Mutex, table map[string]V) []string {
	mu.Lock()
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	mu.Unlock()
	sort.Strings(keys)
	return keys
}

func (m *metrics) get(table map[string]*atomic.Uint64, key string) uint64 {
	m.mu.Lock()
	c := table[key]
	m.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// writeProm renders the Prometheus text exposition format.
func (m *metrics) writeProm(w io.Writer, docs, queries, views, indexNodes int, st storage.Stats) {
	fmt.Fprintf(w, "# HELP spannerd_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE spannerd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "spannerd_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP spannerd_documents Documents in the store.\n")
	fmt.Fprintf(w, "# TYPE spannerd_documents gauge\n")
	fmt.Fprintf(w, "spannerd_documents %d\n", docs)
	fmt.Fprintf(w, "# HELP spannerd_queries Prepared queries in the registry.\n")
	fmt.Fprintf(w, "# TYPE spannerd_queries gauge\n")
	fmt.Fprintf(w, "spannerd_queries %d\n", queries)
	fmt.Fprintf(w, "# HELP spannerd_views Live materialized (doc, query) views.\n")
	fmt.Fprintf(w, "# TYPE spannerd_views gauge\n")
	fmt.Fprintf(w, "spannerd_views %d\n", views)

	m.writeStorageProm(w, st)

	fmt.Fprintf(w, "# HELP spannerd_inflight_requests Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE spannerd_inflight_requests gauge\n")
	fmt.Fprintf(w, "spannerd_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP spannerd_rejected_total Requests refused by the concurrency limiter.\n")
	fmt.Fprintf(w, "# TYPE spannerd_rejected_total counter\n")
	fmt.Fprintf(w, "spannerd_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# HELP spannerd_timeouts_total Requests cancelled by their deadline.\n")
	fmt.Fprintf(w, "# TYPE spannerd_timeouts_total counter\n")
	fmt.Fprintf(w, "spannerd_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "# HELP spannerd_client_disconnects_total Streams aborted because the client went away mid-response.\n")
	fmt.Fprintf(w, "# TYPE spannerd_client_disconnects_total counter\n")
	fmt.Fprintf(w, "spannerd_client_disconnects_total %d\n", m.disconnects.Load())
	fmt.Fprintf(w, "# HELP spannerd_storage_sync_failures_total Mutations applied and logged whose durability barrier (fsync) failed; the write is visible but its on-disk persistence is uncertain.\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_sync_failures_total counter\n")
	fmt.Fprintf(w, "spannerd_storage_sync_failures_total %d\n", m.syncFailures.Load())

	fmt.Fprintf(w, "# HELP spannerd_requests_total Requests served, by handler and status code.\n")
	fmt.Fprintf(w, "# TYPE spannerd_requests_total counter\n")
	for _, k := range sortedKeys(&m.mu, m.requests) {
		h, code, _ := cut(k)
		fmt.Fprintf(w, "spannerd_requests_total{handler=%q,code=%q} %d\n", h, code, m.get(m.requests, k))
	}

	fmt.Fprintf(w, "# HELP spannerd_tuples_total Result tuples emitted, by prepared query and request kind.\n")
	fmt.Fprintf(w, "# TYPE spannerd_tuples_total counter\n")
	for _, k := range sortedKeys(&m.mu, m.tuples) {
		q, kind, _ := cut(k)
		fmt.Fprintf(w, "spannerd_tuples_total{query=%q,kind=%q} %d\n", q, kind, m.get(m.tuples, k))
	}

	writeHistograms(w, "spannerd_request_duration_seconds",
		"Wall-clock request latency by handler.",
		&m.mu, m.handlerLat, func(k string) string { return fmt.Sprintf("handler=%q", k) })
	writeHistograms(w, "spannerd_query_duration_seconds",
		"Evaluation latency by prepared query and request kind.",
		&m.mu, m.queryLat, func(k string) string {
			q, kind, _ := cut(k)
			return fmt.Sprintf("query=%q,kind=%q", q, kind)
		})

	fmt.Fprintf(w, "# HELP spannerd_view_refreshes_total Incremental view refreshes performed (version-stale skips excluded).\n")
	fmt.Fprintf(w, "# TYPE spannerd_view_refreshes_total counter\n")
	fmt.Fprintf(w, "spannerd_view_refreshes_total %d\n", m.viewRefreshes.Load())
	writeHistograms(w, "spannerd_view_refresh_duration_seconds",
		"Incremental view refresh latency (WarmDelta + count + materialization) by view.",
		&m.mu, m.viewLat, func(k string) string {
			d, q, _ := cut(k)
			return fmt.Sprintf("doc=%q,query=%q", d, q)
		})

	// Edit-aware memo maintenance: process-wide WarmDelta node totals and
	// the resulting reuse ratio — how much of the touched DAGs the
	// incremental warms did NOT have to recompute.
	wr, wu := slpmatch.WarmDeltaStats()
	fmt.Fprintf(w, "# HELP spannerd_warm_recomputed_nodes_total SLP nodes recomputed by incremental WarmDelta calls (the edit spines).\n")
	fmt.Fprintf(w, "# TYPE spannerd_warm_recomputed_nodes_total counter\n")
	fmt.Fprintf(w, "spannerd_warm_recomputed_nodes_total %d\n", wr)
	fmt.Fprintf(w, "# HELP spannerd_warm_reused_nodes_total Cached subtree roots WarmDelta pruned at instead of recomputing.\n")
	fmt.Fprintf(w, "# TYPE spannerd_warm_reused_nodes_total counter\n")
	fmt.Fprintf(w, "spannerd_warm_reused_nodes_total %d\n", wu)
	fmt.Fprintf(w, "# HELP spannerd_warm_memo_reuse_ratio Fraction of WarmDelta-visited nodes served from the memo since process start.\n")
	fmt.Fprintf(w, "# TYPE spannerd_warm_memo_reuse_ratio gauge\n")
	fmt.Fprintf(w, "spannerd_warm_memo_reuse_ratio %s\n", rate(wu, wr))

	// The per-SLP-node tables of every index in the process.
	mh, mm := slpmatch.CacheStats()
	fmt.Fprintf(w, "# HELP spannerd_matrix_cache_hits_total slpmatch per-SLP-node matrix cache hits (process-wide).\n")
	fmt.Fprintf(w, "# TYPE spannerd_matrix_cache_hits_total counter\n")
	fmt.Fprintf(w, "spannerd_matrix_cache_hits_total %d\n", mh)
	fmt.Fprintf(w, "# HELP spannerd_matrix_cache_misses_total slpmatch per-SLP-node matrix cache misses (process-wide).\n")
	fmt.Fprintf(w, "# TYPE spannerd_matrix_cache_misses_total counter\n")
	fmt.Fprintf(w, "spannerd_matrix_cache_misses_total %d\n", mm)
	fmt.Fprintf(w, "# HELP spannerd_matrix_cache_hit_rate slpmatch matrix-cache hit rate since process start.\n")
	fmt.Fprintf(w, "# TYPE spannerd_matrix_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "spannerd_matrix_cache_hit_rate %s\n", rate(mh, mm))
	fmt.Fprintf(w, "# HELP spannerd_index_nodes SLP nodes with a table in every registered query: in scan indexes the SLP nodes longer than B with a table (B = the index's block length, 32 bytes), in exact counters every inner node.\n")
	fmt.Fprintf(w, "# TYPE spannerd_index_nodes gauge\n")
	fmt.Fprintf(w, "spannerd_index_nodes %d\n", indexNodes)
	fmt.Fprintf(w, "# HELP spannerd_index_forgotten_nodes_total Per-node table entries deleted by sweeps after mutations superseded or deleted document versions (process-wide).\n")
	fmt.Fprintf(w, "# TYPE spannerd_index_forgotten_nodes_total counter\n")
	fmt.Fprintf(w, "spannerd_index_forgotten_nodes_total %d\n", slpmatch.ForgottenNodes())
}

// writeStorageProm renders the durability backend's counters: WAL
// volume, fsync latency, snapshot freshness, and what the last recovery
// did. All families are emitted for both backends; the memory backend
// reports zeros under backend="memory".
func (m *metrics) writeStorageProm(w io.Writer, st storage.Stats) {
	fmt.Fprintf(w, "# HELP spannerd_storage_info The active storage backend (1 = this backend).\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_info gauge\n")
	fmt.Fprintf(w, "spannerd_storage_info{backend=%q,persistent=%q} 1\n", st.Kind, fmt.Sprint(st.Persistent))

	fmt.Fprintf(w, "# HELP spannerd_wal_records_total Mutation records appended to the write-ahead log since open.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_records_total counter\n")
	fmt.Fprintf(w, "spannerd_wal_records_total %d\n", st.WALRecords)
	fmt.Fprintf(w, "# HELP spannerd_wal_appended_bytes_total Bytes appended to the write-ahead log since open.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_appended_bytes_total counter\n")
	fmt.Fprintf(w, "spannerd_wal_appended_bytes_total %d\n", st.WALAppendedBytes)
	fmt.Fprintf(w, "# HELP spannerd_wal_size_bytes Size of the live (post-rotation) log file.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_size_bytes gauge\n")
	fmt.Fprintf(w, "spannerd_wal_size_bytes %d\n", st.WALSizeBytes)

	fmt.Fprintf(w, "# HELP spannerd_wal_fsyncs_total fsync calls issued by the durability barrier.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_fsyncs_total counter\n")
	fmt.Fprintf(w, "spannerd_wal_fsyncs_total %d\n", st.Fsyncs)
	fmt.Fprintf(w, "# HELP spannerd_wal_fsync_seconds_total Cumulative time spent in fsync.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_fsync_seconds_total counter\n")
	fmt.Fprintf(w, "spannerd_wal_fsync_seconds_total %g\n", float64(st.FsyncTotalNanos)/1e9)
	fmt.Fprintf(w, "# HELP spannerd_wal_fsync_max_seconds Slowest single fsync since open.\n")
	fmt.Fprintf(w, "# TYPE spannerd_wal_fsync_max_seconds gauge\n")
	fmt.Fprintf(w, "spannerd_wal_fsync_max_seconds %g\n", float64(st.FsyncMaxNanos)/1e9)

	fmt.Fprintf(w, "# HELP spannerd_storage_snapshots_total Snapshots written since open.\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_snapshots_total counter\n")
	fmt.Fprintf(w, "spannerd_storage_snapshots_total %d\n", st.Snapshots)
	fmt.Fprintf(w, "# HELP spannerd_storage_snapshot_bytes Size of the newest snapshot (grammar-sized, not document-sized).\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_snapshot_bytes gauge\n")
	fmt.Fprintf(w, "spannerd_storage_snapshot_bytes %d\n", st.SnapshotBytes)
	age := -1.0
	if st.LastSnapshotUnixNano > 0 {
		age = time.Since(time.Unix(0, st.LastSnapshotUnixNano)).Seconds()
	}
	fmt.Fprintf(w, "# HELP spannerd_storage_snapshot_age_seconds Seconds since the newest snapshot (-1 when none exists).\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_snapshot_age_seconds gauge\n")
	fmt.Fprintf(w, "spannerd_storage_snapshot_age_seconds %g\n", age)

	fmt.Fprintf(w, "# HELP spannerd_storage_recovered_records WAL records replayed on top of the snapshot at the last open.\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_recovered_records gauge\n")
	fmt.Fprintf(w, "spannerd_storage_recovered_records %d\n", st.RecoveredRecords)
	tt := 0
	if st.RecoveredTornTail {
		tt = 1
	}
	fmt.Fprintf(w, "# HELP spannerd_storage_recovered_torn_tail Whether the last open truncated a torn final record (a crash mid-append).\n")
	fmt.Fprintf(w, "# TYPE spannerd_storage_recovered_torn_tail gauge\n")
	fmt.Fprintf(w, "spannerd_storage_recovered_torn_tail %d\n", tt)
}

func writeHistograms(w io.Writer, name, help string, mu *sync.Mutex, table map[string]*histogram, labels func(key string) string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, k := range sortedKeys(mu, table) {
		mu.Lock()
		h := table[k]
		mu.Unlock()
		l := labels(k)
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, l, ub, cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, l, cum)
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, l, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, l, cum)
	}
}

// cut splits "a|b" at the first bar.
func cut(k string) (string, string, bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == '|' {
			return k[:i], k[i+1:], true
		}
	}
	return k, "", false
}

func rate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "0"
	}
	return fmt.Sprintf("%.4f", float64(hits)/float64(total))
}
