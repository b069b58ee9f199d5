package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/faultinject"
	"tasm/internal/tree"
)

// stubLeaf is a minimal in-process tasmd leaf speaking just enough of the
// wire API for client fault-tolerance tests: one document, one match.
// topkCalls counts queries that reached the backend (fault assertions),
// docsFetches counts /v1/docs listings (the generation-cache test), and
// generation is mutable to simulate a remote ingest.
type stubLeaf struct {
	generation  atomic.Uint64
	topkCalls   atomic.Int64
	docsFetches atomic.Int64
}

func (s *stubLeaf) handler() http.Handler {
	mux := http.NewServeMux()
	doc := corpus.DocInfo{ID: 0, Name: "d0", Nodes: 2, RootLabel: "a"}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"status": "ok", "docs": 1, "generation": s.generation.Load()})
	})
	mux.HandleFunc("GET /v1/docs", func(w http.ResponseWriter, r *http.Request) {
		s.docsFetches.Add(1)
		writeJSON(w, map[string]any{"generation": s.generation.Load(), "docs": []corpus.DocInfo{doc}})
	})
	mux.HandleFunc("POST /v1/topk", func(w http.ResponseWriter, r *http.Request) {
		s.topkCalls.Add(1)
		writeJSON(w, map[string]any{
			"matches": []map[string]any{{"doc": "d0", "docId": 0, "pos": 1, "dist": 0.0, "size": 2}},
			"stats":   map[string]any{"scanned": 1},
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// fastRetry is a retry policy whose backoffs are negligible, so failure
// tests spend no wall-clock time sleeping.
var fastRetry = shard.RetryPolicy{
	MaxAttempts: 3,
	BaseBackoff: time.Nanosecond,
	MaxBackoff:  time.Nanosecond,
}

// newFaultyClient stands a faultinject proxy between a fresh stub leaf
// and a new client: client -> proxy -> stub.
func newFaultyClient(t *testing.T, script faultinject.Script, opts ...shard.ClientOption) (*shard.Client, *stubLeaf) {
	t.Helper()
	leaf := &stubLeaf{}
	backend := httptest.NewServer(leaf.handler())
	t.Cleanup(backend.Close)
	front := httptest.NewServer(faultinject.New(backend.URL, script))
	t.Cleanup(front.Close)
	cl, err := shard.NewClient(front.URL, append([]shard.ClientOption{shard.WithRetryPolicy(fastRetry)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return cl, leaf
}

func testQuery(t *testing.T) *tree.Tree {
	t.Helper()
	return tree.MustParse(dict.New(), "{a{b}}")
}

// failTopK faults the first n /v1/topk requests; everything else —
// /healthz, the /v1/docs manifest fetch the client issues to enrich
// matches — passes through untouched, so query-path attempt counts stay
// exact.
func failTopK(n int, rule faultinject.Rule) faultinject.Script {
	var seen atomic.Int64
	return func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path != "/v1/topk" {
			return faultinject.Rule{}
		}
		if seen.Add(1) <= int64(n) {
			return rule
		}
		return faultinject.Rule{}
	}
}

// countTopK passes everything through, counting /v1/topk requests.
func countTopK(attempts *atomic.Int64) faultinject.Script {
	return func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path == "/v1/topk" {
			attempts.Add(1)
		}
		return faultinject.Rule{}
	}
}

// TestClientRetries503: a 503 is retried and the retry is accounted in
// Stats (one extra attempt, the shard named in Retried).
func TestClientRetries503(t *testing.T) {
	cl, leaf := newFaultyClient(t, failTopK(1, faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}))
	var stats corpus.Stats
	ms, err := cl.TopK(context.Background(), testQuery(t), 1, corpus.WithStats(&stats))
	if err != nil {
		t.Fatalf("TopK after one 503: %v", err)
	}
	if len(ms) != 1 || ms[0].Doc.Name != "d0" {
		t.Fatalf("matches = %+v", ms)
	}
	if n := leaf.topkCalls.Load(); n != 1 {
		t.Fatalf("backend served %d topk calls, want 1 (the 503 never reached it)", n)
	}
	if stats.Retries != 1 || len(stats.Retried) != 1 || stats.Retried[0] != cl.Name() {
		t.Fatalf("retry accounting: retries=%d retried=%v, want 1 retry naming %s", stats.Retries, stats.Retried, cl.Name())
	}
}

// TestClientRetriesDroppedConnection: a connection killed before any
// response is a retryable transport failure.
func TestClientRetriesDroppedConnection(t *testing.T) {
	cl, _ := newFaultyClient(t, failTopK(1, faultinject.Rule{Fault: faultinject.FaultDrop}))
	var stats corpus.Stats
	if _, err := cl.TopK(context.Background(), testQuery(t), 1, corpus.WithStats(&stats)); err != nil {
		t.Fatalf("TopK after one dropped connection: %v", err)
	}
	if stats.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", stats.Retries)
	}
}

// TestClientRetriesTornBody: a mid-body connection reset is retryable —
// the next attempt rebuilds the request body and succeeds.
func TestClientRetriesTornBody(t *testing.T) {
	cl, _ := newFaultyClient(t, failTopK(2, faultinject.Rule{Fault: faultinject.FaultCutBody}))
	var stats corpus.Stats
	if _, err := cl.TopK(context.Background(), testQuery(t), 1, corpus.WithStats(&stats)); err != nil {
		t.Fatalf("TopK after two torn bodies: %v", err)
	}
	if stats.Retries != 2 {
		t.Fatalf("stats.Retries = %d, want 2", stats.Retries)
	}
}

// TestClientRetriesExhausted: when every attempt fails, the last error
// surfaces as a ScanError naming the shard, after exactly MaxAttempts.
func TestClientRetriesExhausted(t *testing.T) {
	var attempts atomic.Int64
	cl, leaf := newFaultyClient(t, func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path == "/v1/topk" {
			attempts.Add(1)
			return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}
		}
		return faultinject.Rule{}
	})
	_, err := cl.TopK(context.Background(), testQuery(t), 1)
	if err == nil {
		t.Fatal("want failure after exhausted retries")
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != cl.Name() {
		t.Fatalf("err = %v, want ScanError naming %s", err, cl.Name())
	}
	if n := attempts.Load(); n != int64(fastRetry.MaxAttempts) {
		t.Fatalf("client made %d attempts, want %d", n, fastRetry.MaxAttempts)
	}
	if n := leaf.topkCalls.Load(); n != 0 {
		t.Fatalf("backend served %d topk calls, want 0", n)
	}
}

// TestClient500NotRetried: a 500 is a deterministic backend failure (a
// scan error would recur on every attempt); exactly one attempt is made.
func TestClient500NotRetried(t *testing.T) {
	var attempts atomic.Int64
	cl, _ := newFaultyClient(t, func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path == "/v1/topk" {
			attempts.Add(1)
			return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 500}
		}
		return faultinject.Rule{}
	})
	_, err := cl.TopK(context.Background(), testQuery(t), 1)
	var se *corpus.ScanError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("err = %v, want ScanError", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("client made %d attempts, want 1 (500 must not retry)", n)
	}
}

// TestClient4xxNotRetriedNotScanError: a 4xx is the caller's own
// mistake: no retry, and no ScanError either (partial mode must not
// swallow it).
func TestClient4xxNotRetriedNotScanError(t *testing.T) {
	var attempts atomic.Int64
	cl, _ := newFaultyClient(t, func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path == "/v1/topk" {
			attempts.Add(1)
			return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 400}
		}
		return faultinject.Rule{}
	})
	_, err := cl.TopK(context.Background(), testQuery(t), 1)
	if err == nil {
		t.Fatal("want error")
	}
	var se *corpus.ScanError
	if errors.As(err, &se) {
		t.Fatalf("4xx surfaced as ScanError: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("client made %d attempts, want 1", n)
	}
}

// TestClientAttemptTimeoutRetries: a hung attempt is cut off by the
// per-attempt timeout and retried while the caller's context stays live.
func TestClientAttemptTimeoutRetries(t *testing.T) {
	policy := fastRetry
	policy.AttemptTimeout = 100 * time.Millisecond
	cl, _ := newFaultyClient(t,
		failTopK(1, faultinject.Rule{Fault: faultinject.FaultHang}),
		shard.WithRetryPolicy(policy))
	var stats corpus.Stats
	if _, err := cl.TopK(context.Background(), testQuery(t), 1, corpus.WithStats(&stats)); err != nil {
		t.Fatalf("TopK after one hung attempt: %v", err)
	}
	if stats.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", stats.Retries)
	}
}

// TestClientCallerCancelNotRetried: the caller's own cancellation ends
// the request immediately — no retry, and no breaker strike for a
// failure that was not the shard's fault.
func TestClientCallerCancelNotRetried(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	cl, leaf := newFaultyClient(t, func(r *http.Request, seq int) faultinject.Rule {
		if r.URL.Path != "/v1/topk" {
			return faultinject.Rule{}
		}
		once.Do(func() { close(started) })
		return faultinject.Rule{Fault: faultinject.FaultHang}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	q := testQuery(t)
	go func() {
		_, err := cl.TopK(ctx, q, 1)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return within 5s")
	}
	if n := leaf.topkCalls.Load(); n != 0 {
		t.Fatalf("backend served %d topk calls, want 0 (cancellation must not retry)", n)
	}
	if st := cl.BreakerState(); st != shard.BreakerClosed {
		t.Fatalf("breaker %v after caller cancellation, want closed (no strike)", st)
	}
}

// TestClientBreakerOpensAndSkips: consecutive attempt failures open the
// breaker; further queries fail locally with ErrBreakerOpen, without a
// network round trip.
func TestClientBreakerOpensAndSkips(t *testing.T) {
	var attempts atomic.Int64
	cl, _ := newFaultyClient(t,
		func(r *http.Request, seq int) faultinject.Rule {
			if r.URL.Path == "/v1/topk" {
				attempts.Add(1)
				return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}
			}
			return faultinject.Rule{}
		},
		shard.WithBreakerPolicy(shard.BreakerPolicy{Threshold: 3, Cooldown: time.Hour}))
	if _, err := cl.TopK(context.Background(), testQuery(t), 1); err == nil {
		t.Fatal("want failure")
	}
	// 3 attempts = 3 consecutive failures = the threshold: breaker open.
	if st := cl.BreakerState(); st != shard.BreakerOpen {
		t.Fatalf("breaker %v after %d failed attempts, want open", st, attempts.Load())
	}
	before := attempts.Load()
	_, err := cl.TopK(context.Background(), testQuery(t), 1)
	if !errors.Is(err, shard.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != cl.Name() {
		t.Fatalf("breaker error %v not attributed as ScanError to %s", err, cl.Name())
	}
	if attempts.Load() != before {
		t.Fatalf("open breaker still sent %d requests", attempts.Load()-before)
	}
}

// TestClientBreakerHalfOpenRecovery: after the cooldown one probe goes
// through; its success closes the breaker and service resumes.
func TestClientBreakerHalfOpenRecovery(t *testing.T) {
	cl, _ := newFaultyClient(t,
		failTopK(2, faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}),
		shard.WithRetryPolicy(shard.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}),
		shard.WithBreakerPolicy(shard.BreakerPolicy{Threshold: 2, Cooldown: time.Nanosecond}))
	// Two failing queries (one attempt each) open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := cl.TopK(context.Background(), testQuery(t), 1); err == nil {
			t.Fatal("want failure")
		}
	}
	// The nanosecond cooldown has long passed: the next query is the
	// half-open probe, the backend now answers, the breaker closes.
	if _, err := cl.TopK(context.Background(), testQuery(t), 1); err != nil {
		t.Fatalf("probe query failed: %v", err)
	}
	if st := cl.BreakerState(); st != shard.BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
}

// TestClientBreakerProbeCancelDoesNotWedge: a half-open probe the caller
// cancels mid-flight delivers no verdict — the breaker must revert to
// open and admit the next query as a fresh probe, not sit half-open
// refusing everything until a process restart.
func TestClientBreakerProbeCancelDoesNotWedge(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	cl, _ := newFaultyClient(t,
		func(r *http.Request, seq int) faultinject.Rule {
			if r.URL.Path != "/v1/topk" {
				return faultinject.Rule{}
			}
			switch calls.Add(1) {
			case 1, 2:
				return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}
			case 3:
				once.Do(func() { close(started) })
				return faultinject.Rule{Fault: faultinject.FaultHang}
			default:
				return faultinject.Rule{}
			}
		},
		shard.WithRetryPolicy(shard.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}),
		shard.WithBreakerPolicy(shard.BreakerPolicy{Threshold: 2, Cooldown: time.Nanosecond}))
	// Two failing queries (one attempt each) open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := cl.TopK(context.Background(), testQuery(t), 1); err == nil {
			t.Fatal("want failure")
		}
	}
	// The cooldown has passed: the next query is the half-open probe. It
	// hangs, and the caller gives up on it.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	q := testQuery(t)
	go func() {
		_, err := cl.TopK(ctx, q, 1)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("probe err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled probe did not return within 5s")
	}
	// The backend now answers: the next query must be admitted as a fresh
	// probe, succeed, and close the breaker.
	if _, err := cl.TopK(context.Background(), testQuery(t), 1); err != nil {
		t.Fatalf("query after cancelled probe: %v (breaker wedged half-open?)", err)
	}
	if st := cl.BreakerState(); st != shard.BreakerClosed {
		t.Fatalf("breaker %v after successful re-probe, want closed", st)
	}
}

// TestClientBreakerProbe4xxSettles: a half-open probe answered with a
// deterministic 4xx proves the shard alive — the probe settles as a
// success (the breaker closes) instead of leaving probing set forever.
func TestClientBreakerProbe4xxSettles(t *testing.T) {
	var calls atomic.Int64
	cl, _ := newFaultyClient(t,
		func(r *http.Request, seq int) faultinject.Rule {
			if r.URL.Path != "/v1/topk" {
				return faultinject.Rule{}
			}
			switch calls.Add(1) {
			case 1, 2:
				return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}
			case 3:
				return faultinject.Rule{Fault: faultinject.FaultStatus, Code: 400}
			default:
				return faultinject.Rule{}
			}
		},
		shard.WithRetryPolicy(shard.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond}),
		shard.WithBreakerPolicy(shard.BreakerPolicy{Threshold: 2, Cooldown: time.Nanosecond}))
	for i := 0; i < 2; i++ {
		if _, err := cl.TopK(context.Background(), testQuery(t), 1); err == nil {
			t.Fatal("want failure")
		}
	}
	// The probe comes back 400: the shard answered, so it is alive.
	if _, err := cl.TopK(context.Background(), testQuery(t), 1); err == nil {
		t.Fatal("want the 400 to surface")
	}
	if st := cl.BreakerState(); st != shard.BreakerClosed {
		t.Fatalf("breaker %v after 4xx-answered probe, want closed", st)
	}
	if _, err := cl.TopK(context.Background(), testQuery(t), 1); err != nil {
		t.Fatalf("query after settled probe: %v", err)
	}
}

// TestReplicaSetLoserClientRetriesAccounted: a primary that burns its
// retry budget before failing over still reports those retries — the
// client records attempts on its error path and the race folds the
// losing attempt's fault accounting into the winner's merged stats.
func TestReplicaSetLoserClientRetriesAccounted(t *testing.T) {
	primary, _ := newFaultyClient(t,
		failTopK(1<<30, faultinject.Rule{Fault: faultinject.FaultStatus, Code: 503}),
		shard.WithName("deadPrimary"))
	secondary, _ := newFaultyClient(t, nil, shard.WithName("healthy"))
	rs := shard.NewReplicaSet([]corpus.Searcher{primary, secondary}, shard.WithHedgeDelay(time.Hour))
	var stats corpus.Stats
	if _, err := rs.TopK(context.Background(), testQuery(t), 1, corpus.WithStats(&stats)); err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if want := uint64(fastRetry.MaxAttempts - 1); stats.Retries != want {
		t.Fatalf("stats.Retries = %d, want %d (the dead primary's burned retries)", stats.Retries, want)
	}
	found := false
	for _, name := range stats.Retried {
		found = found || name == "deadPrimary"
	}
	if !found {
		t.Fatalf("stats.Retried = %v, want the dead primary named", stats.Retried)
	}
}

// TestClientResponseTooLarge: a response over the cap fails with
// ErrResponseTooLarge (wrapped in a ScanError), not a JSON decode
// error, and is not retried.
func TestClientResponseTooLarge(t *testing.T) {
	var attempts atomic.Int64
	cl, _ := newFaultyClient(t, countTopK(&attempts), shard.WithMaxResponseBytes(16))
	_, err := cl.TopK(context.Background(), testQuery(t), 1)
	if !errors.Is(err, shard.ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != cl.Name() {
		t.Fatalf("oversized response error %v not a ScanError naming the shard", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("client made %d attempts, want 1 (oversize must not retry)", n)
	}
}

// TestClientListingCacheGenerationKeyed: DocsContext re-transfers the
// manifest only when the remote generation changed; while it matches, a
// cheap /healthz round trip serves the cached listing.
func TestClientListingCacheGenerationKeyed(t *testing.T) {
	cl, leaf := newFaultyClient(t, nil)
	leaf.generation.Store(7)
	ctx := context.Background()

	docs, err := cl.DocsContext(ctx)
	if err != nil || len(docs) != 1 || docs[0].Name != "d0" {
		t.Fatalf("first listing: %v, %v", docs, err)
	}
	if n := leaf.docsFetches.Load(); n != 1 {
		t.Fatalf("first DocsContext made %d listing fetches, want 1", n)
	}

	// Same generation: the cached listing is served, no /v1/docs call.
	docs, err = cl.DocsContext(ctx)
	if err != nil || len(docs) != 1 {
		t.Fatalf("second listing: %v, %v", docs, err)
	}
	if n := leaf.docsFetches.Load(); n != 1 {
		t.Fatalf("unchanged generation still re-fetched the listing (%d fetches)", n)
	}

	// The cached listing must be a copy: mutating it cannot poison the
	// cache for later callers.
	docs[0].Name = "mutated"
	docs, err = cl.DocsContext(ctx)
	if err != nil || docs[0].Name != "d0" {
		t.Fatalf("cache poisoned by caller mutation: %v, %v", docs, err)
	}

	// A remote ingest bumps the generation: the next DocsContext must
	// re-transfer.
	leaf.generation.Store(8)
	if _, err := cl.DocsContext(ctx); err != nil {
		t.Fatal(err)
	}
	if n := leaf.docsFetches.Load(); n != 2 {
		t.Fatalf("changed generation fetched %d listings total, want 2", n)
	}
}

// batchLeaf is a stub leaf answering /v1/topk-batch with one match per
// query — for the first `short` fewer queries than it was asked.
func batchLeaf(t *testing.T, short int) *shard.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"status": "ok", "docs": 1, "generation": 1})
	})
	mux.HandleFunc("GET /v1/docs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"generation": 1, "docs": []corpus.DocInfo{{ID: 0, Name: "d0", Nodes: 2, RootLabel: "a"}}})
	})
	mux.HandleFunc("POST /v1/topk-batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []string `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([][]map[string]any, len(req.Queries)-short)
		for i := range results {
			results[i] = []map[string]any{{"doc": "d0", "docId": 0, "pos": 1, "dist": 0.0, "size": 2}}
		}
		writeJSON(w, map[string]any{"results": results, "stats": map[string]any{"scanned": 1}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	cl, err := shard.NewClient(srv.URL, shard.WithRetryPolicy(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestClientShortBatchAnswer: a leaf that returns fewer result lists than
// it was asked for is a broken backend — a shard-attributed ScanError from
// the client, a failed (or, under partial results, degraded) fan-out from
// a router over it — never an index panic in the merge.
func TestClientShortBatchAnswer(t *testing.T) {
	ctx := context.Background()
	queries := []*tree.Tree{testQuery(t), testQuery(t), testQuery(t)}
	short, good := batchLeaf(t, 1), batchLeaf(t, 0)

	_, err := short.TopKBatch(ctx, queries, 1)
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != short.Name() {
		t.Fatalf("short answer: err = %v, want a ScanError naming %s", err, short.Name())
	}

	g := shard.NewGroup(good, short)
	if _, err := g.TopKBatch(ctx, queries, 1); !errors.As(err, &se) || se.Shard != short.Name() {
		t.Fatalf("group over a short leaf: err = %v, want a ScanError naming %s", err, short.Name())
	}
	var stats corpus.Stats
	results, err := g.TopKBatch(ctx, queries, 1, corpus.WithPartialResults(), corpus.WithStats(&stats))
	if err != nil {
		t.Fatalf("partial results over a short leaf: %v", err)
	}
	if len(results) != len(queries) || len(stats.Degraded) != 1 || stats.Degraded[0] != short.Name() {
		t.Fatalf("partial results: %d result lists, degraded %v; want %d lists with %s degraded", len(results), stats.Degraded, len(queries), short.Name())
	}
	for i, ms := range results {
		if len(ms) != 1 || ms[0].Doc.Name != "d0" {
			t.Fatalf("query %d: matches = %+v, want the good leaf's one", i, ms)
		}
	}
}
