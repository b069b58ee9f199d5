// Command tasmd is the TASM query daemon: it serves top-k approximate
// subtree matching over a corpus of persisted documents via a JSON HTTP
// API — either directly from a corpus directory, or as a router
// scatter-gathering over other tasmd instances.
//
// Usage:
//
//	tasmd -dir ./corpus -addr :8421                          # leaf: serve one directory
//	tasmd -shards http://db1:8421,http://db2:8421 -addr :80  # router: scatter-gather over leaves
//	tasmd -shards 'http://db1a:8421|http://db1b:8421,http://db2:8421'
//	                                                         # router: db1 served by two replicas
//
// Exactly one of -dir and -shards is required. A router serves the same
// query API as a leaf (requests fan out concurrently, per-shard rankings
// merge deterministically, and a one-shard failure fails the query naming
// the shard), so routers can themselves be shards of a higher tier. The
// ingest endpoints are leaf-only: a router answers them with 501.
//
// Within -shards, URLs joined with "|" are interchangeable replicas of
// one shard (same documents, same ingest order): the router queries the
// first replica, hedges to the next after -hedge-delay (or immediately
// when an attempt fails), takes the first success, and cancels the
// losers. Per-shard requests additionally retry with backoff behind a
// circuit breaker, so a dead replica is skipped cheaply. A query fails
// only when every replica of a shard is down; requests carrying
// "partial":true degrade instead to the surviving shards' merged
// results, with the degraded shards reported in the response stats.
//
// Endpoints:
//
//	POST   /v1/topk         – answer a top-k query across the corpus
//	                          {"query":"{a{b}}","k":5} or {"queryXml":"<a>…</a>",…};
//	                          optional "docs":[…], "trees":true, "workers":N
//	                          (-1 ≤ N ≤ GOMAXPROCS), "exhaustive":true
//	POST   /v1/topk-batch   – answer many queries in ONE corpus scan:
//	                          {"queries":["{a{b}}",…],"k":5}; every document is
//	                          read once for the whole batch and all queries
//	                          share one request-scoped dictionary overlay
//	POST   /v1/docs         – ingest a document: JSON {"name":…,"xml":…} or a
//	                          raw XML body with ?name=… (leaf only)
//	GET    /v1/docs         – list the corpus manifest (a router lists its
//	                          shards' in shard order, and answers 500
//	                          naming a shard that cannot list)
//	DELETE /v1/docs/{name}  – remove a document: the manifest entry is
//	                          tombstoned (ids never reused, caches stay
//	                          valid) and the files GC'd best-effort (leaf only)
//	POST   /v1/admin/verify – re-run the integrity scrub over the live
//	                          corpus: checksums every referenced file and
//	                          quarantines corrupt documents (leaf only;
//	                          a router answers 501 — verify each shard)
//	GET    /healthz         – liveness, document count, generation
//	GET    /metrics         – Prometheus text-format counters: requests, cache
//	                          hits, documents scanned/skipped, the candidate
//	                          pruning pipeline's totals, dictionary gauges,
//	                          per-request latency histograms, per-shard router
//	                          telemetry, and Go runtime gauges
//	GET    /debug/slowlog   – ring buffer of recent queries at or above the
//	                          -slow-query threshold (newest first)
//	GET    /debug/queries   – queries executing right now, with the stage
//	                          (parse/plan/scan/shard/merge) each is in
//
// Every query request may add ?trace=1 to receive a "trace" block in the
// response: a span tree covering parse, plan, each scanned document (with
// its work counts), each shard fan-out leg, and the merge. A router
// forwards the trace context to its leaves with a W3C traceparent header,
// so the leaves' blocks nest under the router's with one shared trace id.
// Requests are logged structured (JSON, stderr); -debug-addr exposes
// net/http/pprof on a separate listener that should stay private.
//
// Results are cached in a bounded LRU keyed on the backend generation, so
// ingesting or removing a document transparently invalidates every cached
// answer. In-flight top-k computations are bounded by -max-concurrent;
// further requests queue.
//
// Every request's context threads down to the scan loops (corpus.Searcher
// contract), so a client that disconnects stops paying for its query
// mid-scan. On SIGINT/SIGTERM the daemon stops accepting connections and
// drains in-flight requests for up to -drain; whatever is still running
// then is cancelled through the same context plumbing before the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
)

func main() {
	var (
		dir           = flag.String("dir", "", "corpus directory to serve (created if missing); mutually exclusive with -shards")
		shards        = flag.String("shards", "", "comma-separated tasmd base URLs to scatter-gather over; join interchangeable replicas of one shard with | (e.g. a1|a2,b); mutually exclusive with -dir")
		hedgeDelay    = flag.Duration("hedge-delay", shard.DefaultHedgeDelay, "how long a replicated shard waits for the current replica before hedging the query to the next one (0 queries all replicas at once)")
		addr          = flag.String("addr", ":8421", "listen address")
		cacheSize     = flag.Int("cache", 256, "result cache entries (0 disables)")
		maxConcurrent = flag.Int("max-concurrent", 2*runtime.GOMAXPROCS(0), "max in-flight top-k computations (0 = unbounded)")
		workers       = flag.Int("workers", 0, "default number of ranges each document's candidates are split into, scanned concurrently (0 = sequential, -1 = GOMAXPROCS, at most GOMAXPROCS); a /v1/topk request's \"workers\", bounded alike, overrides it")
		maxK          = flag.Int("max-k", 10000, "largest k a request may ask for")
		maxBatch      = flag.Int("max-batch", 1024, "largest number of queries one batch request may carry")
		maxBodyBytes  = flag.Int64("max-body-bytes", defaultMaxBodyBytes, "largest request body accepted, in bytes; oversized bodies get 413")
		verifyMode    = flag.String("verify", "scrub", "startup integrity check over the corpus files: scrub (quarantine corrupt documents), strict (refuse to start), off (skip checksums; a store that does not decode is still quarantined); leaf only")
		drain         = flag.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight requests before cancelling them")
		slowQuery     = flag.Duration("slow-query", 0, "record queries at least this slow in /debug/slowlog (0 disables)")
		debugAddr     = flag.String("debug-addr", "", "listen address for net/http/pprof (empty disables; keep it private)")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "tasmd: invalid -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	var mode corpus.VerifyMode
	switch *verifyMode {
	case "scrub":
		mode = corpus.VerifyScrub
	case "strict":
		mode = corpus.VerifyStrict
	case "off":
		mode = corpus.VerifyOff
	default:
		fmt.Fprintf(os.Stderr, "tasmd: invalid -verify %q (want scrub, strict, or off)\n", *verifyMode)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *dir, *shards, *hedgeDelay, *addr, *debugAddr, mode, serverConfig{
		cacheSize:     *cacheSize,
		maxConcurrent: *maxConcurrent,
		workers:       *workers,
		maxK:          *maxK,
		maxBatch:      *maxBatch,
		maxBodyBytes:  *maxBodyBytes,
		slowQuery:     *slowQuery,
		logger:        logger,
	}, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "tasmd:", err)
		os.Exit(1)
	}
}

// run builds the backend selected by the flags and serves it until ctx is
// cancelled (by signal) or the listener fails.
func run(ctx context.Context, dir, shards string, hedgeDelay time.Duration, addr, debugAddr string, mode corpus.VerifyMode, cfg serverConfig, drain time.Duration) error {
	if (dir == "") == (shards == "") {
		return fmt.Errorf("exactly one of -dir and -shards is required")
	}
	if err := checkWorkers(cfg.workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	var (
		src  corpus.Searcher
		leaf *corpus.Corpus
	)
	if dir != "" {
		start := time.Now()
		c, err := corpus.Open(dir, corpus.WithLogger(logger), corpus.WithVerifyMode(mode))
		if err != nil {
			return err
		}
		cfg.openDuration = time.Since(start)
		src, leaf = c, c
		// columnBytes is the decoded columns with their label postings: 12
		// bytes per node and 8 per distinct label of each document.
		logger.Info("serving corpus", "dir", dir, "docs", c.Len(), "quarantined", c.Quarantined(),
			"openDuration", cfg.openDuration.String(), "columnBytes", c.ColumnBytes(), "addr", addr)
	} else {
		replicas := 0
		children := make([]corpus.Searcher, 0, 4)
		for _, spec := range strings.Split(shards, ",") {
			// URLs joined with | are interchangeable replicas of one shard.
			members := make([]corpus.Searcher, 0, 2)
			for _, u := range strings.Split(spec, "|") {
				u = strings.TrimSpace(u)
				if u == "" {
					continue
				}
				cl, err := shard.NewClient(u)
				if err != nil {
					return err
				}
				// Each replica's client is wrapped with its own telemetry;
				// the stats objects land in serverConfig so /metrics can
				// export them as shard-labelled series (one series per
				// replica, including its breaker state).
				st := &shardStats{name: cl.Name(), breaker: cl.BreakerState}
				cfg.shards = append(cfg.shards, st)
				members = append(members, &instrumentedShard{Client: cl, st: st})
			}
			switch len(members) {
			case 0:
				continue
			case 1:
				children = append(children, members[0])
			default:
				replicas += len(members)
				children = append(children, shard.NewReplicaSet(members, shard.WithHedgeDelay(hedgeDelay)))
			}
		}
		if len(children) == 0 {
			return fmt.Errorf("-shards needs at least one URL")
		}
		src = shard.NewGroup(children...)
		logger.Info("routing over shards", "shards", len(children), "replicas", replicas, "addr", addr, "hedgeDelay", hedgeDelay.String())
	}
	if debugAddr != "" {
		if err := serveDebug(debugAddr, logger); err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, l, newServer(src, leaf, cfg), drain)
}

// serveDebug starts the private debug listener: net/http/pprof on its
// own mux (never the API mux, so exposing the API never exposes
// profiling). It lives for the whole process — pprof during shutdown is
// exactly when someone wants a goroutine dump of a stuck drain.
func serveDebug(addr string, logger *slog.Logger) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	logger.Info("pprof debug server listening", "addr", addr)
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			logger.Error("debug server failed", "err", err)
		}
	}()
	return nil
}

// serve runs the HTTP server on l until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests get up to drain to
// finish, and whatever is still running is cancelled through the request
// contexts (they derive from a base context this function owns) before
// the server is torn down.
func serve(ctx context.Context, l net.Listener, handler http.Handler, drain time.Duration) error {
	// Request contexts derive from baseCtx: cancelling it after the drain
	// deadline reaches every in-flight scan through the ctx plumbing.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	// The shutdown goroutine watches a child of ctx so a listener failure
	// (which returns below without cancelling ctx) still releases it.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	srv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
		// Slow-client protection: without these a client trickling header
		// or body bytes pins a connection and goroutine forever, never
		// reaching the body cap or the concurrency semaphore. Write and
		// idle timeouts are generous because large-k scans over big
		// corpora legitimately take a while.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// Shutdown counts a connection that has not sent its first request (a
	// client's spare dial) as busy for 5 s; close those with the idle ones.
	var fresh sync.Map // connections in StateNew
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		if fresh.Delete(c); st == http.StateNew {
			fresh.Store(c, nil)
		}
	}
	srv.RegisterOnShutdown(func() { fresh.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true }) })
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		slog.Info("shutting down, draining in-flight requests", "drain", drain.String())
		shCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(shCtx)
		if err != nil {
			// The drain deadline passed with requests still in flight:
			// cancel their contexts so the scans stop, then tear down.
			slog.Warn("drain deadline exceeded, cancelling in-flight scans")
			baseCancel()
			err = srv.Close()
		}
		shutdownDone <- err
	}()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return <-shutdownDone
}
