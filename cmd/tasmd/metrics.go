package main

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/work"
)

// processStart anchors tasmd_process_start_time_seconds: the moment the
// process (strictly: this package's initialization) began.
var processStart = time.Now()

// latencyBuckets are the fixed per-request latency histogram boundaries
// in seconds. They span sub-millisecond cache hits to multi-second scans
// of large corpora; everything slower lands in the implicit +Inf bucket.
var latencyBuckets = [numLatencyBuckets]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numLatencyBuckets is the number of finite histogram boundaries.
const numLatencyBuckets = 13

// latencyHistogram is a fixed-bucket Prometheus histogram maintained with
// atomic counters only, so observing a request never takes a lock and
// scraping never contends with query answering. Buckets hold non-
// cumulative counts; the cumulative sums required by the exposition
// format are computed at scrape time.
type latencyHistogram struct {
	buckets [numLatencyBuckets + 1]atomic.Uint64 // last is +Inf
	sumNs   atomic.Uint64
}

// observe records one request duration.
func (h *latencyHistogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < numLatencyBuckets && s > latencyBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// writeHeader emits the HELP/TYPE preamble shared by every series of the
// metric (a labelled histogram family emits it once, then one series per
// label set).
func writeHistogramHeader(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
}

// writeSeries emits one series of the histogram. labels is either empty
// or a comma-terminated rendered label prefix like `shard="db1",` — the
// le label is appended after it, keeping le last as is conventional.
//
// The sample lines are derived from ONE pass over the buckets: _count is
// the +Inf cumulative value by construction, so a scrape racing
// concurrent observes can never expose `_count` disagreeing with the
// +Inf bucket (a previous version kept a separate count counter and
// loaded it after summing the buckets, which could tear).
func (h *latencyHistogram) writeSeries(w io.Writer, name, labels string) {
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, le, cum)
	}
	cum += h.buckets[numLatencyBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

// write emits an unlabelled histogram (header + its only series).
func (h *latencyHistogram) write(w io.Writer, name, help string) {
	writeHistogramHeader(w, name, help)
	h.writeSeries(w, name, "")
}

// escapeLabelValue escapes a Prometheus label value per the text
// exposition format.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// shardStats instruments one shard of a router: request/error totals, an
// in-flight gauge and a latency histogram, each exported on /metrics as
// a per-shard series labelled with the shard's name. Updated by the
// instrumentedShard wrapper around shard.Client (see observe.go).
type shardStats struct {
	name     string
	requests atomic.Uint64
	errors   atomic.Uint64
	inflight atomic.Int64
	latency  latencyHistogram
	// breaker reports the shard client's circuit-breaker state for the
	// tasmd_shard_breaker_state gauge; nil when the child has none.
	breaker func() shard.BreakerState
}

// serverMetrics accumulates the daemon's lifetime counters, exported on
// GET /metrics in Prometheus text exposition format. Everything but the
// scan work is a plain atomic counter updated on the request path; the
// work counts are one work.Counts under a mutex held for one Add, so
// scraping contends with query answering for no longer than a copy.
type serverMetrics struct {
	topkRequests  atomic.Uint64 // top-k requests accepted (cache hits included)
	batchRequests atomic.Uint64 // batch requests accepted (cache hits included)
	batchQueries  atomic.Uint64 // queries carried by batch requests
	cacheHits     atomic.Uint64 // requests answered from the result cache
	ingests       atomic.Uint64 // documents ingested
	ingestErrors  atomic.Uint64 // ingest requests rejected or failed (oversized bodies included)
	removes       atomic.Uint64 // documents removed
	slowQueries   atomic.Uint64 // queries at or above the slow-query threshold
	tracedQueries atomic.Uint64 // queries that requested a trace block (?trace=1)

	// Aggregated corpus.Stats of every computed (non-cached) run.
	docsScanned atomic.Uint64
	docsSkipped atomic.Uint64
	workMu      sync.Mutex
	work        work.Counts // exported as one row per counter, from its tags
	// overlayLabels totals the request-local labels computed runs held in
	// their per-request dictionary overlays — labels that on a shared
	// mutable dictionary would have leaked into process memory forever.
	overlayLabels atomic.Uint64

	// Fault-tolerance accounting of a router's computed runs.
	retries         atomic.Uint64 // extra per-shard request attempts after failures
	hedges          atomic.Uint64 // hedge/failover requests fired at replicas
	breakerSkips    atomic.Uint64 // replica attempts refused by an open breaker
	degradedQueries atomic.Uint64 // queries answered best-effort with shards missing
	degradedShards  atomic.Uint64 // shard outages those degraded answers absorbed

	// Per-request latency, cache hits included (they are requests too).
	topkLatency  latencyHistogram
	batchLatency latencyHistogram
}

// observe folds one computed run's statistics into the totals.
func (m *serverMetrics) observe(s *corpus.Stats) {
	m.docsScanned.Add(uint64(s.Scanned))
	m.docsSkipped.Add(uint64(s.Skipped))
	m.workMu.Lock()
	m.work.Add(s.Counts)
	m.workMu.Unlock()
	m.overlayLabels.Add(uint64(s.OverlayLabels))
	m.retries.Add(s.Retries)
	m.hedges.Add(s.Hedges)
	m.breakerSkips.Add(uint64(len(s.BreakerSkipped)))
	if len(s.Degraded) > 0 {
		m.degradedQueries.Add(1)
		m.degradedShards.Add(uint64(len(s.Degraded)))
	}
}

// handleMetrics serves the Prometheus text exposition format (version
// 0.0.4; counters, gauges and fixed-bucket histograms).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := &s.metrics
	type row struct {
		name, kind, help string
		value            uint64
	}
	rows := []row{
		{"tasmd_topk_requests_total", "counter", "Top-k requests accepted.", m.topkRequests.Load()},
		{"tasmd_topk_batch_requests_total", "counter", "Batch top-k requests accepted.", m.batchRequests.Load()},
		{"tasmd_topk_batch_queries_total", "counter", "Queries carried by batch top-k requests.", m.batchQueries.Load()},
		{"tasmd_topk_cache_hits_total", "counter", "Requests answered from the result cache.", m.cacheHits.Load()},
		{"tasmd_ingests_total", "counter", "Documents ingested.", m.ingests.Load()},
		{"tasmd_ingest_errors_total", "counter", "Ingest requests rejected or failed (oversized bodies, malformed XML, duplicate names).", m.ingestErrors.Load()},
		{"tasmd_removes_total", "counter", "Documents removed.", m.removes.Load()},
		{"tasmd_slow_queries_total", "counter", "Queries that took at least the -slow-query threshold (recorded in /debug/slowlog).", m.slowQueries.Load()},
		{"tasmd_traced_queries_total", "counter", "Queries that requested a per-response trace block (?trace=1).", m.tracedQueries.Load()},
		{"tasmd_docs_scanned_total", "counter", "Documents scanned by TASM-postorder from their resident columns.", m.docsScanned.Load()},
		{"tasmd_docs_skipped_total", "counter", "Documents skipped by the document-level label lower bound.", m.docsSkipped.Load()},
	}
	// The scan's work: one row per work.Counts field, named and described
	// by its tags.
	m.workMu.Lock()
	totals := reflect.ValueOf(m.work)
	m.workMu.Unlock()
	for i := range totals.NumField() {
		f := totals.Type().Field(i)
		rows = append(rows, row{f.Tag.Get("metric"), "counter", f.Tag.Get("help"), totals.Field(i).Uint()})
	}
	rows = append(rows, []row{
		{"tasmd_overlay_labels_total", "counter", "Request-local labels held in per-request dictionary overlays (released with each request).", m.overlayLabels.Load()},
		{"tasmd_shard_retries_total", "counter", "Extra per-shard request attempts after retryable failures.", m.retries.Load()},
		{"tasmd_shard_hedges_total", "counter", "Hedge and failover requests fired at replicas of replicated shards.", m.hedges.Load()},
		{"tasmd_breaker_skips_total", "counter", "Replica attempts refused locally by an open circuit breaker.", m.breakerSkips.Load()},
		{"tasmd_degraded_queries_total", "counter", "Queries answered best-effort (partial=true) with at least one shard missing.", m.degradedQueries.Load()},
		{"tasmd_degraded_shards_total", "counter", "Shard outages absorbed by degraded answers (one per missing shard per query).", m.degradedShards.Load()},
		{"tasmd_inflight_queries", "gauge", "Queries currently executing (see /debug/queries).", uint64(s.inflight.len())},
		{"tasmd_corpus_docs", "gauge", "Documents currently served (all shards for a router; cached, eventually consistent there).", uint64(s.numDocs())},
		{"tasmd_corpus_generation", "gauge", "Backend generation (changes whenever the document set does).", s.src.Generation()},
	}...)
	for _, c := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", c.name, c.help, c.name, c.kind, c.name, c.value)
	}
	// The leaf-only gauges: a router's shards each export their own.
	// tasmd_quarantined_docs is the corpus's lifetime count of documents
	// its integrity scrub removed from serving; alert on it being
	// non-zero. tasmd_corpus_column_bytes is the heap copy of every
	// store's items that queries scan, with the candidate sets cached
	// beside them.
	if s.leaf != nil {
		fmt.Fprintf(w, "# HELP tasmd_dict_base_labels Labels in the frozen corpus base dictionary (grows only on ingest, never on queries).\n# TYPE tasmd_dict_base_labels gauge\ntasmd_dict_base_labels %d\n", s.leaf.DictLen())
		fmt.Fprintf(w, "# HELP tasmd_quarantined_docs Documents quarantined by the integrity scrub (files preserved under quarantine/; non-zero means data loss pending operator action).\n# TYPE tasmd_quarantined_docs gauge\ntasmd_quarantined_docs %d\n", s.leaf.Quarantined())
		fmt.Fprintf(w, "# HELP tasmd_corpus_column_bytes Heap bytes of the postorder columns and label postings decoded from the stores at load and scanned by every query (12 per node and 8 per distinct label of a document), and of the candidate sets cached beside them (about 1 per node and 4 per candidate, for each of up to eight size thresholds per document).\n# TYPE tasmd_corpus_column_bytes gauge\ntasmd_corpus_column_bytes %d\n", s.leaf.ColumnBytes())
	}
	if s.cfg.openDuration > 0 {
		fmt.Fprintf(w, "# HELP tasmd_corpus_open_seconds Cold-start cost of opening the backend (manifest load, orphan sweep, store read, checksum and column decode).\n# TYPE tasmd_corpus_open_seconds gauge\ntasmd_corpus_open_seconds %g\n", s.cfg.openDuration.Seconds())
	}
	m.topkLatency.write(w, "tasmd_topk_latency_seconds", "Per-request latency of POST /v1/topk (cache hits included).")
	m.batchLatency.write(w, "tasmd_topk_batch_latency_seconds", "Per-request latency of POST /v1/topk-batch (cache hits included).")
	s.writeShardMetrics(w)
	writeRuntimeMetrics(w)
}

// writeShardMetrics emits the router's per-shard series: request/error
// totals, the in-flight gauge, and one latency histogram series per
// shard under a single family header. A leaf (no shards) emits nothing.
func (s *server) writeShardMetrics(w io.Writer) {
	if len(s.shards) == 0 {
		return
	}
	for _, c := range []struct {
		name, kind, help string
		value            func(*shardStats) int64
	}{
		{"tasmd_shard_requests_total", "counter", "Query requests fanned out to the shard (topk and topk-batch).",
			func(st *shardStats) int64 { return int64(st.requests.Load()) }},
		{"tasmd_shard_errors_total", "counter", "Shard query requests that failed.",
			func(st *shardStats) int64 { return int64(st.errors.Load()) }},
		{"tasmd_shard_inflight_requests", "gauge", "Shard query requests currently in flight.",
			func(st *shardStats) int64 { return st.inflight.Load() }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.kind)
		for _, st := range s.shards {
			fmt.Fprintf(w, "%s{shard=\"%s\"} %d\n", c.name, escapeLabelValue(st.name), c.value(st))
		}
	}
	writeHistogramHeader(w, "tasmd_shard_latency_seconds", "Per-shard latency of fanned-out query requests, observed at the router.")
	for _, st := range s.shards {
		st.latency.writeSeries(w, "tasmd_shard_latency_seconds", fmt.Sprintf("shard=%q,", escapeLabelValue(st.name)))
	}
	// The breaker gauge family appears only when some shard has one, so a
	// family is never declared without samples.
	declared := false
	for _, st := range s.shards {
		if st.breaker == nil {
			continue
		}
		if !declared {
			fmt.Fprint(w, "# HELP tasmd_shard_breaker_state Circuit-breaker state of the shard client (0 closed, 1 half-open, 2 open).\n# TYPE tasmd_shard_breaker_state gauge\n")
			declared = true
		}
		fmt.Fprintf(w, "tasmd_shard_breaker_state{shard=\"%s\"} %d\n", escapeLabelValue(st.name), int(st.breaker()))
	}
}

// writeRuntimeMetrics emits Go runtime gauges: goroutines, heap bytes,
// cumulative GC pause, GOMAXPROCS and the process start time. One
// ReadMemStats per scrape (a sub-millisecond stop-the-world) is the
// standard price of heap visibility.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, c := range []struct {
		name, kind, help string
		value            float64
	}{
		{"tasmd_goroutines", "gauge", "Goroutines currently live.", float64(runtime.NumGoroutine())},
		{"tasmd_gomaxprocs", "gauge", "GOMAXPROCS of the process.", float64(runtime.GOMAXPROCS(0))},
		{"tasmd_heap_bytes", "gauge", "Heap bytes currently allocated and in use (runtime.MemStats.HeapAlloc).", float64(ms.HeapAlloc)},
		{"tasmd_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs) / 1e9},
		{"tasmd_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC)},
		{"tasmd_process_start_time_seconds", "gauge", "Unix time the process started.", float64(processStart.UnixNano()) / 1e9},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", c.name, c.help, c.name, c.kind, c.name, c.value)
	}
}
