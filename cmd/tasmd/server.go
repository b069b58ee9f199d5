package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

// defaultMaxBodyBytes caps request bodies when -max-body-bytes is not
// given: queries are small, and ingested documents beyond this belong on
// the filesystem next to the corpus, not in an HTTP body.
const defaultMaxBodyBytes = 64 << 20

// serverConfig tunes the daemon.
type serverConfig struct {
	// maxBodyBytes caps every request body; overflowing it is a 413.
	// ≤ 0 means defaultMaxBodyBytes.
	maxBodyBytes int64
	// cacheSize bounds the (query, k) result LRU; ≤ 0 disables caching.
	cacheSize int
	// maxConcurrent bounds in-flight top-k computations; ≤ 0 means
	// unbounded.
	maxConcurrent int
	// workers is the number of ranges each document's candidates are split
	// into when a request does not choose its own (0 = sequential scan, -1 =
	// GOMAXPROCS); checkWorkers bounds it and every request's.
	workers int
	// maxK rejects requests asking for more results than the server is
	// willing to rank.
	maxK int
	// maxBatch rejects batch requests carrying more queries than the
	// server is willing to scan for in one pass.
	maxBatch int
	// slowQuery is the slow-query log threshold; queries running at least
	// this long are recorded in /debug/slowlog. 0 disables the log.
	slowQuery time.Duration
	// logger receives the structured request log; nil discards it.
	logger *slog.Logger
	// shards carries the per-shard telemetry of a router backend (one
	// entry per shard, exported on /metrics); nil for a leaf.
	shards []*shardStats
	// openDuration is the cold-start cost of the backend (corpus.Open:
	// manifest load, orphan sweep, store read, checksum and column
	// decode); zero when the backend has no local open phase (a shard
	// router).
	openDuration time.Duration
}

// server routes the tasmd HTTP API over one shared Searcher backend: a
// local corpus directory, or a scatter-gather group of remote shards.
// Ingest, removal, verification, the leaf-only gauges and parsing in the
// corpus dictionary need the local corpus, leaf; a router has none and
// serves queries and listings only.
type server struct {
	src      corpus.Searcher
	leaf     *corpus.Corpus // src itself on a leaf, nil on a router
	cfg      serverConfig
	cache    *lruCache
	sem      chan struct{}
	metrics  serverMetrics
	log      *slog.Logger
	slow     *slowLog
	inflight *inflightRegistry
	shards   []*shardStats
}

// newServer returns the daemon's http.Handler over the given backend:
// a leaf passes its corpus as both src and leaf, a router a nil leaf.
func newServer(src corpus.Searcher, leaf *corpus.Corpus, cfg serverConfig) http.Handler {
	if cfg.maxK <= 0 {
		cfg.maxK = 10000
	}
	if cfg.maxBatch <= 0 {
		cfg.maxBatch = 1024
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = defaultMaxBodyBytes
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &server{
		src: src, leaf: leaf, cfg: cfg, cache: newLRUCache(cfg.cacheSize),
		log:      logger,
		slow:     &slowLog{threshold: cfg.slowQuery},
		inflight: newInflightRegistry(),
		shards:   cfg.shards,
	}
	if cfg.maxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.maxConcurrent)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topk", s.handleQuery("/v1/topk", true, &s.metrics.topkLatency))
	mux.HandleFunc("POST /v1/topk-batch", s.handleQuery("/v1/topk-batch", false, &s.metrics.batchLatency))
	mux.HandleFunc("POST /v1/docs", s.handleIngest)
	mux.HandleFunc("GET /v1/docs", s.handleListDocs)
	mux.HandleFunc("DELETE /v1/docs/{name}", s.handleRemove)
	mux.HandleFunc("POST /v1/admin/verify", s.handleVerify)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("GET /debug/queries", s.handleQueries)
	return withRequestLog(logger, mux)
}

// traceFor builds the request's trace: a continuation of the caller's
// trace when a valid W3C traceparent header is present (a router's
// shard.Client stitches its leaves this way), a fresh root otherwise.
// wantTrace (?trace=1) additionally opts the response into the exported
// trace block and propagates the trace onward to remote shards.
func (s *server) traceFor(r *http.Request, wantTrace bool) *qtrace.Trace {
	var tr *qtrace.Trace
	if tid, sid, ok := qtrace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		tr = qtrace.NewWithParent(tid, sid)
	} else {
		tr = qtrace.New()
	}
	tr.SetPropagate(wantTrace)
	if wantTrace {
		s.metrics.tracedQueries.Add(1)
	}
	return tr
}

// observeSlow feeds one finished query to the slow-query log and, when
// it qualifies, the structured log and the slow-query counter.
func (s *server) observeSlow(d time.Duration, e slowEntry) {
	if s.slow.observe(d, e) {
		s.metrics.slowQueries.Add(1)
		s.log.Warn("slow query",
			"reqId", e.ReqID, "traceId", e.TraceID, "endpoint", e.Endpoint,
			"query", e.Query, "k", e.K, "durMs", float64(d.Microseconds())/1000,
			"scanned", e.Scanned, "evaluated", e.Evaluated, "error", e.Error)
	}
}

// parseBracket parses a bracket-notation query in a leaf's corpus
// dictionary (an overlay over it), and in a fresh dictionary on a router,
// whose Searcher re-interns it.
func (s *server) parseBracket(q string) (*tree.Tree, error) {
	if s.leaf != nil {
		return s.leaf.ParseBracket(q)
	}
	return tree.Parse(dict.New(), q)
}

// parseQueries parses the request's queries; a batch's error names the
// offending query by index.
func (s *server) parseQueries(req *queryRequest) ([]*tree.Tree, error) {
	if req.QueryXML != "" {
		q, err := s.parseXML(strings.NewReader(req.QueryXML))
		if err != nil {
			return nil, fmt.Errorf("parsing query: %v", err)
		}
		return []*tree.Tree{q}, nil
	}
	queries := make([]*tree.Tree, len(req.Queries))
	for i, bracket := range req.Queries {
		q, err := s.parseBracket(bracket)
		if err != nil && req.single {
			return nil, fmt.Errorf("parsing query: %v", err)
		} else if err != nil {
			return nil, fmt.Errorf("parsing query %d: %v", i, err)
		}
		queries[i] = q
	}
	return queries, nil
}

// parseXML is parseBracket for XML queries.
func (s *server) parseXML(r io.Reader) (*tree.Tree, error) {
	if s.leaf != nil {
		return s.leaf.ParseXML(r)
	}
	return xmlstream.ParseTree(dict.New(), r)
}

// queryRequest is a decoded request of either query endpoint: the shared
// wire request, with a /v1/topk bracket query moved into Queries.
type queryRequest struct {
	shard.Request
	single bool // decoded from /v1/topk
}

// rejectField shadows a shared request field the endpoint does not take:
// its mere presence in a body, whatever the value, fails the decode as an
// unknown field would.
type rejectField struct{}

var rejectFieldType = reflect.TypeFor[rejectField]()

func (*rejectField) UnmarshalJSON([]byte) error {
	return &json.UnmarshalTypeError{Value: "field", Type: rejectFieldType}
}

// topkBody and batchBody are the shared request as /v1/topk and
// /v1/topk-batch decode it.
type topkBody struct {
	*shard.Request
	Queries rejectField `json:"queries"`
}

type batchBody struct {
	*shard.Request
	Query    rejectField `json:"query"`
	QueryXML rejectField `json:"queryXml"`
	Workers  rejectField `json:"workers"`
}

// reportedQueries is the "queries" of log and debug entries: the batch
// size, 0 for a /v1/topk request.
func (q *queryRequest) reportedQueries() int {
	if q.single {
		return 0
	}
	return len(q.Queries)
}

// preview renders the request's first query for the slow log and
// /debug/queries (bracket queries verbatim, XML marked as such — the
// parsed tree would need the request overlay which is gone by logging
// time).
func (q *queryRequest) preview() string {
	if q.QueryXML != "" {
		return "<xml query, " + queryPreview(q.QueryXML) + ">"
	}
	return queryPreview(q.Queries[0])
}

// checkWorkers accepts a number of ranges per document scan from -1
// (GOMAXPROCS) through GOMAXPROCS, 0 being the sequential scan. More
// ranges than processors would not run at once, and each keeps distance
// computers and a 56 KiB memo of its own in the pooled scan scratch for
// as long as the scratch lives, so the value a client or flag may ask
// for is bounded here, at the edge.
func checkWorkers(n int) error {
	if procs := runtime.GOMAXPROCS(0); n < -1 || n > procs {
		return fmt.Errorf("workers must lie in [-1, %d] (GOMAXPROCS), got %d", procs, n)
	}
	return nil
}

// decodeQuery reads a request body of /v1/topk (single) or
// /v1/topk-batch, validates it and counts the accepted request. On
// failure it has answered — 400, or 413 past -max-body-bytes — and
// returns false.
func (s *server) decodeQuery(w http.ResponseWriter, r *http.Request, single bool) (*queryRequest, bool) {
	req := &queryRequest{single: single}
	var body any = &batchBody{Request: &req.Request}
	if single {
		body = &topkBody{Request: &req.Request}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(body); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Type == rejectFieldType {
			err = fmt.Errorf("json: unknown field %q", te.Field)
		}
		httpError(w, bodyErrStatus(err), "invalid JSON body: %v", err)
		return nil, false
	}
	if err := s.validate(req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if single {
		s.metrics.topkRequests.Add(1)
		if req.Query != "" {
			req.Queries = []string{req.Query}
		}
	} else {
		s.metrics.batchRequests.Add(1)
		s.metrics.batchQueries.Add(uint64(len(req.Queries)))
	}
	return req, true
}

// validate checks a decoded request against its endpoint and the
// server's limits.
func (s *server) validate(req *queryRequest) error {
	switch {
	case req.single && (req.Query == "") == (req.QueryXML == ""):
		return errors.New("exactly one of query and queryXml is required")
	case !req.single && len(req.Queries) == 0:
		return errors.New("queries must not be empty")
	case req.K < 1:
		return fmt.Errorf("k must be ≥ 1, got %d", req.K)
	case req.K > s.cfg.maxK:
		return fmt.Errorf("k %d exceeds the server limit %d", req.K, s.cfg.maxK)
	case len(req.Queries) > s.cfg.maxBatch:
		return fmt.Errorf("batch of %d queries exceeds the server limit %d", len(req.Queries), s.cfg.maxBatch)
	}
	return checkWorkers(req.Workers)
}

// response shapes an answer, held in the batch endpoint's form, as the
// response of the endpoint the request came through.
func (req *queryRequest) response(a *shard.BatchResponse) any {
	if req.single {
		return &shard.TopKResponse{Matches: a.Results[0], Stats: a.Stats, Trace: a.Trace}
	}
	return a
}

// handleQuery is the one query handler of both endpoints (single is
// /v1/topk): it serves the decoded request from the cache or, admitted
// under the concurrency limit, from the backend — a single query as a
// batch of one — and logs, caches and answers in the endpoint's response
// shape.
func (s *server) handleQuery(path string, single bool, latency *latencyHistogram) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { latency.observe(time.Since(start)) }()
		req, ok := s.decodeQuery(w, r, single)
		if !ok {
			return
		}

		// Traced requests bypass the result cache in both directions: a
		// cached answer has no spans to show, and a response carrying a trace
		// block must never be replayed to a request that asked for none.
		wantTrace := r.URL.Query().Get("trace") == "1"
		key := s.cacheKey(path, req)
		if !wantTrace {
			if body, ok := s.cache.get(key); ok {
				s.metrics.cacheHits.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(body) // headers are sent: a failed write has no one to report to
				return
			}
		}

		tr := s.traceFor(r, wantTrace)
		defer qtrace.Release(tr)
		ctx := qtrace.NewContext(r.Context(), tr)
		// Registered before admission so a query stuck waiting for a slot is
		// visible in /debug/queries (with no active stage yet).
		inflightID := s.inflight.register(&inflightEntry{
			reqID: requestIDFrom(ctx), endpoint: path,
			query: req.preview(), queries: req.reportedQueries(), k: req.K, start: start, trace: tr,
		})
		defer s.inflight.deregister(inflightID)

		if s.sem != nil {
			// A request whose client has gone while it waited gives up its
			// place instead of taking a scan slot for nobody.
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-ctx.Done():
				s.queryError(w, r, ctx.Err())
				return
			}
		}

		parseSpan := tr.Begin(qtrace.SpanParse, "")
		queries, err := s.parseQueries(req)
		tr.End(parseSpan)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}

		var stats corpus.Stats
		opts := []corpus.QueryOption{corpus.WithStats(&stats)}
		if len(req.Docs) > 0 {
			opts = append(opts, corpus.WithDocs(req.Docs...))
		}
		if !req.Trees {
			opts = append(opts, corpus.WithoutTrees())
		}
		if req.Exhaustive {
			opts = append(opts, corpus.WithoutFilter())
		}
		if req.Partial {
			opts = append(opts, corpus.WithPartialResults())
		}
		workers := req.Workers
		if workers == 0 {
			workers = s.cfg.workers
		}
		if workers != 0 {
			opts = append(opts, corpus.WithWorkers(workers))
		}
		results, err := s.src.TopKBatch(ctx, queries, req.K, opts...)
		if d := time.Since(start); s.slow.records(d) {
			entry := slowEntry{
				Time: start, ReqID: requestIDFrom(ctx), TraceID: tr.TraceID().String(),
				Endpoint: path, Query: req.preview(), Queries: req.reportedQueries(), K: req.K,
				Stats: stats,
			}
			if err != nil {
				entry.Error = err.Error()
			}
			s.observeSlow(d, entry)
		}
		if err != nil {
			s.queryError(w, r, err)
			return
		}

		s.metrics.observe(&stats)
		answer := shard.BatchResponse{
			Results: make([][]shard.Match, len(results)),
			Stats:   stats,
		}
		for i, ms := range results {
			answer.Results[i] = matchesOf(ms)
		}
		if wantTrace || len(stats.Degraded) > 0 {
			// Degraded answers are never cached: they are not THE answer for
			// this generation, only the best one available while a shard was
			// down.
			if wantTrace {
				answer.Trace = tr.Export()
			}
			writeJSON(w, http.StatusOK, req.response(&answer))
			return
		}
		// An entry is the exact body a hit replays, marked cached; the miss
		// answers the same bytes with cached false, encoded once.
		answer.Stats.Cached = true
		body, err := json.Marshal(req.response(&answer))
		if err != nil { // not cacheable: answered as writeJSON answers it
			answer.Stats.Cached = false
			writeJSON(w, http.StatusOK, req.response(&answer))
			return
		}
		body = append(body, '\n')
		s.cache.put(key, body)
		writeMiss(w, body)
	}
}

// cachedTrue is how a cache entry's stats mark it, and cachedFalse how a
// computed answer's do; Stats.Cached is never omitted, and a quote inside
// a JSON string is escaped, so a body holds the key exactly once.
var cachedTrue, cachedFalse = []byte(`"cached":true`), []byte(`"cached":false`)

// writeMiss answers a computed request with body, a cache entry, as
// writeJSON would answer it: cached false.
func writeMiss(w http.ResponseWriter, body []byte) {
	i := bytes.LastIndex(body, cachedTrue)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Headers are sent: a failed write has no one to report to.
	_, _ = w.Write(body[:i])
	_, _ = w.Write(cachedFalse)
	_, _ = w.Write(body[i+len(cachedTrue):])
}

// queryError maps a query failure to an HTTP status: cancellation and
// deadline errors (client gone, or the daemon draining for shutdown)
// become 503, backend-side scan failures 500, everything else is the
// caller's mistake (unknown doc selection, malformed query).
func (s *server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		httpError(w, http.StatusServiceUnavailable, "query cancelled: %v", err)
		return
	}
	var scanErr *corpus.ScanError
	if errors.As(err, &scanErr) {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpError(w, http.StatusBadRequest, "%v", err)
}

// matchesOf converts corpus matches to the response shape.
func matchesOf(matches []corpus.Match) []shard.Match {
	out := make([]shard.Match, len(matches))
	for i, m := range matches {
		out[i] = shard.Match{
			Doc: m.Doc.Name, DocID: m.Doc.ID, Pos: m.Pos, Dist: m.Dist, Size: m.Size,
		}
		if m.Tree != nil {
			out[i].Tree = m.Tree.String()
		}
	}
	return out
}

// cacheKey identifies a query result: the endpoint, the corpus generation
// and every request field that can change the response bytes. Workers is
// deliberately absent — results are identical in all worker modes, so
// keying on it would only fragment the cache. Variable-length fields are
// length-prefixed so values containing separator bytes cannot collide
// with field boundaries.
func (s *server) cacheKey(path string, req *queryRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\x00g%d\x00k%d\x00t%v\x00e%v\x00p%v\x00q%d",
		path, s.src.Generation(), req.K, req.Trees, req.Exhaustive, req.Partial, len(req.Queries))
	for _, q := range req.Queries {
		writeLenPrefixed(&sb, q)
	}
	writeLenPrefixed(&sb, req.QueryXML)
	for _, d := range req.Docs {
		writeLenPrefixed(&sb, d)
	}
	return sb.String()
}

// writeLenPrefixed appends one variable-length key field unambiguously.
func writeLenPrefixed(sb *strings.Builder, s string) {
	fmt.Fprintf(sb, "\x00%d:", len(s))
	sb.WriteString(s)
}

// ingestRequest is the JSON body of POST /v1/docs. Raw XML bodies with a
// ?name= query parameter are accepted as well.
type ingestRequest struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.leaf == nil {
		httpError(w, http.StatusNotImplemented,
			"this tasmd serves a shard group and is read-only; ingest into the shard that should own the document")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes)
	var name string
	var xml io.Reader
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req ingestRequest
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.metrics.ingestErrors.Add(1)
			httpError(w, bodyErrStatus(err), "invalid JSON body: %v", err)
			return
		}
		name, xml = req.Name, strings.NewReader(req.XML)
	} else {
		name, xml = r.URL.Query().Get("name"), body
	}
	if name == "" {
		s.metrics.ingestErrors.Add(1)
		httpError(w, http.StatusBadRequest, "document name is required (JSON field \"name\" or ?name=)")
		return
	}
	info, err := s.leaf.AddXML(name, xml)
	if err != nil {
		s.metrics.ingestErrors.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			// The XML streamed straight from the capped body; mid-parse
			// overflow surfaces here, wrapped in the parse error.
			status = http.StatusRequestEntityTooLarge
		case strings.Contains(err.Error(), "already exists"):
			status = http.StatusConflict
		}
		httpError(w, status, "%v", err)
		return
	}
	s.metrics.ingests.Add(1)
	writeJSON(w, http.StatusCreated, info)
}

// bodyErrStatus distinguishes a request body that overflowed the
// -max-body-bytes cap (413, the client should not retry as-is) from a
// merely malformed one (400).
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleVerify serves POST /v1/admin/verify: an on-demand integrity
// scrub of the backing corpus. Corrupt documents are quarantined and
// reported; the response's quarantinedTotal is the corpus's lifetime
// count (also exported as the tasmd_quarantined_docs gauge). A router
// has no files of its own: each leaf scrubs its own disk.
func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if s.leaf == nil {
		httpError(w, http.StatusNotImplemented,
			"this tasmd serves a shard group with no local files; verify each shard directly")
		return
	}
	rep, err := s.leaf.Verify()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "verify: %v", err)
		return
	}
	quarantined := rep.Quarantined
	if quarantined == nil {
		quarantined = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"checked":          rep.Checked,
		"quarantined":      quarantined,
		"quarantinedTotal": s.leaf.Quarantined(),
	})
}

// handleRemove serves DELETE /v1/docs/{name}: the manifest entry is
// tombstoned (ids are never reused, so generation-keyed caches stay
// valid) and the backing files garbage-collected best-effort.
func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if s.leaf == nil {
		httpError(w, http.StatusNotImplemented,
			"this tasmd serves a shard group and is read-only; delete on the shard that owns the document")
		return
	}
	name := r.PathValue("name")
	if err := s.leaf.Remove(name); err != nil {
		if errors.Is(err, corpus.ErrNotFound) {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.removes.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// handleListDocs serves GET /v1/docs. A router whose shard cannot list
// fails as a query does (queryError: 500 naming the shard), never with a
// stale or partial listing.
func (s *server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	// The generation is read before the listing: if an ingest lands in
	// between, clients cache the newer listing under the older generation
	// and simply refetch next time — stale-listing-as-current can never
	// happen. shard.Client keys its listing cache on this field.
	gen := s.src.Generation()
	docs, err := s.src.Docs(r.Context())
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	if docs == nil {
		docs = []corpus.DocInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "docs": docs})
}

// numDocs returns the backend's document count without blocking: a
// router reports its shards' cached, eventually consistent counts, so a
// dead leaf cannot stall liveness probes or metric scrapes.
func (s *server) numDocs() int {
	n, _ := s.src.NumDocs()
	return n
}

// handleSlowlog serves GET /debug/slowlog: the most recent slow queries
// (newest first), the active threshold, and the lifetime count. Entries
// carry the trace id, so a recorded slow query can be re-run with
// ?trace=1 for a stage-level breakdown.
func (s *server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries, total := s.slow.snapshot()
	if entries == nil {
		entries = []slowEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"thresholdMs": float64(s.cfg.slowQuery.Microseconds()) / 1000,
		"total":       total,
		"entries":     entries,
	})
}

// handleQueries serves GET /debug/queries: every query currently
// executing, longest-running first, with the stage (and document or
// shard) its trace is in right now.
func (s *server) handleQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"queries": s.inflight.snapshot()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"docs":       s.numDocs(),
		"generation": s.src.Generation(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		// The response is already committed; nothing useful to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
