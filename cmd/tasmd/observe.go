package main

import (
	"context"
	"encoding/hex"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// ---------------------------------------------------------------------------
// Request IDs and request-scoped logging.

// ctxKeyRequestID carries the request id through the handler chain.
type ctxKeyRequestID struct{}

// requestIDFrom returns the request id the logging middleware assigned,
// or "" outside of it (direct handler tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// newRequestID returns a fresh 16-hex-digit request id. Random rather
// than sequential so ids from restarted or load-balanced daemons never
// collide in aggregated logs.
func newRequestID() string {
	var b [8]byte
	for i := 0; i < 8; i += 4 {
		v := rand.Uint32()
		b[i], b[i+1], b[i+2], b[i+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status (and whether a handler wrote
// one at all) for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// withRequestLog wraps the API mux with the observability middleware:
// every request gets an id (a client-supplied X-Request-Id is honored so
// ids correlate across tiers, else one is minted), the id is echoed in
// the X-Request-Id response header and carried in the context for the
// slow-query log, and the request is logged structured on completion.
// Scrape and probe endpoints are logged at Debug so a 5-second Prometheus
// interval does not drown the query log.
func withRequestLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case r.URL.Path == "/healthz" || r.URL.Path == "/metrics":
			level = slog.LevelDebug
		}
		logger.Log(r.Context(), level, "request",
			"reqId", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"durMs", float64(time.Since(start).Microseconds())/1000,
		)
	})
}

// ---------------------------------------------------------------------------
// Slow-query log.

// slowLogSize bounds the ring: enough history to cover an incident
// window, small enough that /debug/slowlog responses stay readable.
const slowLogSize = 128

// slowEntry is one recorded slow query, JSON-shaped for /debug/slowlog.
type slowEntry struct {
	Time     time.Time `json:"time"`
	ReqID    string    `json:"reqId,omitempty"`
	TraceID  string    `json:"traceId"`
	Endpoint string    `json:"endpoint"`
	// Query previews the query (first query for a batch), truncated.
	Query   string  `json:"query"`
	Queries int     `json:"queries,omitempty"` // batch size; 0 for single
	K       int     `json:"k"`
	DurMs   float64 `json:"durMs"`
	// Stats is the run's: the documents and candidates it scanned say
	// where the time went, and a slow query that was retried or hedged
	// (the fault-tolerance accounting, by shard name) usually explains
	// itself.
	corpus.Stats
	Error string `json:"error,omitempty"`
}

// slowLog is a fixed-size ring of the most recent queries that ran for
// at least the configured threshold. A zero threshold disables it.
type slowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	entries   [slowLogSize]slowEntry
	next      int
	total     uint64
}

// records reports whether a query that ran for d is one the log records,
// so that a caller builds its entry only then.
func (l *slowLog) records(d time.Duration) bool {
	return l != nil && l.threshold > 0 && d >= l.threshold
}

// observe records the query if it ran for at least the threshold;
// reports whether it did.
func (l *slowLog) observe(d time.Duration, e slowEntry) bool {
	if !l.records(d) {
		return false
	}
	e.DurMs = float64(d.Microseconds()) / 1000
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[l.next%slowLogSize] = e
	l.next++
	l.total++
	return true
}

// snapshot returns the recorded entries, most recent first, plus the
// lifetime count (entries beyond the ring size have been dropped).
func (l *slowLog) snapshot() (entries []slowEntry, total uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if n > slowLogSize {
		n = slowLogSize
	}
	entries = make([]slowEntry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, l.entries[(l.next-1-i)%slowLogSize])
	}
	return entries, l.total
}

// queryPreview truncates a query string for log entries: enough to
// recognize the query, bounded so a pathological megabyte query cannot
// bloat the ring.
func queryPreview(q string) string {
	const max = 200
	if len(q) <= max {
		return q
	}
	return q[:max] + "…"
}

// ---------------------------------------------------------------------------
// In-flight query registry.

// inflightQuery is one currently-executing query, JSON-shaped for
// GET /debug/queries. Stage and Shard come from the query's live trace.
type inflightQuery struct {
	ID        uint64  `json:"id"`
	ReqID     string  `json:"reqId,omitempty"`
	TraceID   string  `json:"traceId"`
	Endpoint  string  `json:"endpoint"`
	Query     string  `json:"query"`
	Queries   int     `json:"queries,omitempty"`
	K         int     `json:"k"`
	ElapsedMs float64 `json:"elapsedMs"`
	// Stage is the deepest span still open ("scan", "shard", "merge", …)
	// and Detail its subject (document or shard name).
	Stage  string `json:"stage,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// inflightEntry is the registry's record of one running query.
type inflightEntry struct {
	id       uint64
	reqID    string
	endpoint string
	query    string
	queries  int
	k        int
	start    time.Time
	trace    *qtrace.Trace
}

// inflightRegistry tracks running queries for GET /debug/queries. The
// trace pointers stay owned by their handlers; snapshot only reads them
// through qtrace's own locking, and deregistration happens before the
// handler releases the trace to the pool.
type inflightRegistry struct {
	mu      sync.Mutex
	nextID  uint64
	queries map[uint64]*inflightEntry
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{queries: make(map[uint64]*inflightEntry)}
}

// register adds a running query; the returned id deregisters it.
func (r *inflightRegistry) register(e *inflightEntry) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	e.id = r.nextID
	r.queries[e.id] = e
	return e.id
}

func (r *inflightRegistry) deregister(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.queries, id)
}

func (r *inflightRegistry) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// snapshot renders the running queries, longest-running first.
func (r *inflightRegistry) snapshot() []inflightQuery {
	r.mu.Lock()
	entries := make([]*inflightEntry, 0, len(r.queries))
	for _, e := range r.queries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	now := time.Now()
	out := make([]inflightQuery, 0, len(entries))
	for _, e := range entries {
		q := inflightQuery{
			ID:        e.id,
			ReqID:     e.reqID,
			TraceID:   e.trace.TraceID().String(),
			Endpoint:  e.endpoint,
			Query:     e.query,
			Queries:   e.queries,
			K:         e.k,
			ElapsedMs: float64(now.Sub(e.start).Microseconds()) / 1000,
		}
		q.Stage, q.Detail, _ = e.trace.Active()
		out = append(out, q)
	}
	// Longest-running first: the queries someone debugging a stall wants
	// at the top. Registration ids break ties deterministically.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ElapsedMs > out[j-1].ElapsedMs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-shard instrumentation.

// instrumentedShard wraps a router's *shard.Client with per-shard
// telemetry: request/error counters, an in-flight gauge and a latency
// histogram, exported as shard-labelled series on /metrics. Only the
// queries are counted: Docs, NumDocs and Generation are the embedded
// client's, and so is Name, which shard.Group names the shard by.
type instrumentedShard struct {
	*shard.Client
	st *shardStats
}

var _ corpus.Searcher = (*instrumentedShard)(nil)

// TopK is TopKBatch for a batch of one (the embedded client's own TopK
// would bypass the counters).
func (s *instrumentedShard) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	if err := corpus.ValidateQuery(q, k); err != nil {
		return nil, err
	}
	results, err := s.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TopKBatch accounts one fan-out request around the client's.
func (s *instrumentedShard) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	start := time.Now()
	s.st.requests.Add(1)
	s.st.inflight.Add(1)
	defer func() {
		s.st.inflight.Add(-1)
		s.st.latency.observe(time.Since(start))
	}()
	rs, err := s.Client.TopKBatch(ctx, queries, k, opts...)
	if err != nil {
		s.st.errors.Add(1)
	}
	return rs, err
}
