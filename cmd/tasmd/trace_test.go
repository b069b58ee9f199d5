package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/prb"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// spanNames collects the distinct span names of a wire trace.
func spanNames(w *qtrace.Wire) map[string]int {
	names := map[string]int{}
	for _, s := range w.Spans {
		names[s.Name]++
	}
	return names
}

// TestTraceBlock exercises the leaf-side trace lifecycle: ?trace=1
// returns a span tree covering every stage, plain requests stay
// trace-free, and traced responses bypass the cache in both directions.
func TestTraceBlock(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, h, "d1", `<r><a><b>x</b></a><a><c>y</c></a></r>`)
	ingest(t, h, "d2", `<r><a><b>z</b></a></r>`)

	plain := topk(t, h, shard.Request{Query: "{a{b}}", K: 2})
	if plain.Trace != nil {
		t.Fatalf("untraced request returned a trace block")
	}
	if !topk(t, h, shard.Request{Query: "{a{b}}", K: 2}).Stats.Cached {
		t.Fatalf("repeat request not served from cache")
	}

	w := doJSON(t, h, "POST", "/v1/topk?trace=1", shard.Request{Query: "{a{b}}", K: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("traced topk: status %d: %s", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Cached {
		t.Fatalf("traced request must bypass the result cache")
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatalf("?trace=1 returned no trace block")
	}
	if len(tr.TraceID) != 32 || len(tr.SpanID) != 16 {
		t.Fatalf("malformed ids: traceId=%q spanId=%q", tr.TraceID, tr.SpanID)
	}
	if tr.ParentID != "" {
		t.Fatalf("root trace has a parent: %q", tr.ParentID)
	}
	names := spanNames(tr)
	for _, want := range []string{qtrace.SpanParse, qtrace.SpanPlan, qtrace.SpanScan, qtrace.SpanMerge} {
		if names[want] == 0 {
			t.Errorf("trace missing a %q span; got %v", want, names)
		}
	}
	if names[qtrace.SpanScan] != 2 {
		t.Errorf("expected one scan span per document (2), got %d", names[qtrace.SpanScan])
	}
	sawPrune := false
	for _, s := range tr.Spans {
		if s.DurUs < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
		if s.Name == qtrace.SpanScan {
			if s.Detail != "d1" && s.Detail != "d2" {
				t.Errorf("scan span names unknown document %q", s.Detail)
			}
			if s.Prune != nil {
				sawPrune = true
			}
		}
	}
	if !sawPrune {
		t.Errorf("no scan span carries pruning counters")
	}

	// The traced response must not have been cached: the next plain
	// request must carry no trace block even when served from cache.
	again := topk(t, h, shard.Request{Query: "{a{b}}", K: 2})
	if again.Trace != nil {
		t.Fatalf("trace block leaked into the cached plain response")
	}
}

// TestTraceparentContinuation verifies a leaf continues the caller's W3C
// trace context instead of minting its own ids.
func TestTraceparentContinuation(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	body := strings.NewReader(`{"query":"{a{b}}","k":1}`)
	req := httptest.NewRequest("POST", "/v1/topk?trace=1", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace block")
	}
	if resp.Trace.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("leaf minted its own trace id %s instead of continuing the caller's", resp.Trace.TraceID)
	}
	if resp.Trace.ParentID != "00f067aa0ba902b7" {
		t.Errorf("leaf parent id %s != caller span id", resp.Trace.ParentID)
	}
}

// TestRouterTraceStitching is the acceptance path: a traced query through
// a router over a leaf returns one stitched trace — the leaf's block
// nests under the router's shard span, shares the router's trace id, and
// names the router's root span as its parent.
func TestRouterTraceStitching(t *testing.T) {
	cl, _ := newLeaf(t, map[string]string{"a1": `<r><a><b>x</b></a></r>`})
	router := newServer(shard.NewGroup(cl), nil, serverConfig{})

	w := doJSON(t, router, "POST", "/v1/topk?trace=1", shard.Request{Query: "{a{b}}", K: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	root := resp.Trace
	if root == nil {
		t.Fatal("router returned no trace block")
	}
	names := spanNames(root)
	if names[qtrace.SpanShard] == 0 {
		t.Fatalf("router trace has no shard span; got %v", names)
	}
	if len(root.Shards) != 1 {
		t.Fatalf("router trace carries %d leaf blocks, want 1", len(root.Shards))
	}
	leaf := root.Shards[0]
	if leaf.TraceID != root.TraceID {
		t.Errorf("leaf trace id %s != router trace id %s (traceparent not propagated)", leaf.TraceID, root.TraceID)
	}
	if leaf.ParentID != root.SpanID {
		t.Errorf("leaf parent id %s != router span id %s", leaf.ParentID, root.SpanID)
	}
	leafNames := spanNames(leaf)
	if leafNames[qtrace.SpanScan] == 0 {
		t.Errorf("leaf trace has no scan span; got %v", leafNames)
	}
}

// TestSlowlog verifies the slow-query ring: with a 1ns threshold every
// query is slow, entries surface on /debug/slowlog newest first, and the
// counter on /metrics moves.
func TestSlowlog(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{slowQuery: time.Nanosecond})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)
	topk(t, h, shard.Request{Query: "{a{b}}", K: 1})
	topk(t, h, shard.Request{Query: "{a{c}}", K: 1})

	w := doJSON(t, h, "GET", "/debug/slowlog", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/slowlog: status %d", w.Code)
	}
	var out struct {
		ThresholdMs float64     `json:"thresholdMs"`
		Total       uint64      `json:"total"`
		Entries     []slowEntry `json:"entries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 2 || len(out.Entries) != 2 {
		t.Fatalf("want 2 slow queries, got total=%d entries=%d", out.Total, len(out.Entries))
	}
	// Newest first: the {a{c}} query ran last.
	if out.Entries[0].Query != "{a{c}}" || out.Entries[1].Query != "{a{b}}" {
		t.Errorf("entries not newest-first: %+v", out.Entries)
	}
	e := out.Entries[0]
	if e.Endpoint != "/v1/topk" || e.K != 1 || len(e.TraceID) != 32 || e.DurMs < 0 {
		t.Errorf("malformed slow entry: %+v", e)
	}
	if e.ReqID == "" {
		t.Errorf("slow entry lacks the request id")
	}
}

// blockingSearcher is a Searcher stub whose queries park inside a scan
// span until released, so a test can observe the query in flight.
type blockingSearcher struct {
	entered chan struct{}
	release chan struct{}
}

//tasm:allow ctxpoll — test stub: delegates to TopKBatch
func (b *blockingSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	_, err := b.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	return nil, err
}

//tasm:allow ctxpoll — test stub: parks on its own channel, no candidate loop to poll from
func (b *blockingSearcher) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	tr := qtrace.FromContext(ctx)
	span := tr.Begin(qtrace.SpanScan, "blocked-doc")
	close(b.entered)
	<-b.release
	tr.End(span)
	return make([][]corpus.Match, len(queries)), nil
}
func (b *blockingSearcher) Docs() []corpus.DocInfo { return nil }
func (b *blockingSearcher) Generation() uint64     { return 0 }

// TestInflightQueries verifies /debug/queries: a running query is listed
// with its live stage from the trace, and vanishes once it completes.
func TestInflightQueries(t *testing.T) {
	b := &blockingSearcher{entered: make(chan struct{}), release: make(chan struct{})}
	h := newServer(b, nil, serverConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		doJSON(t, h, "POST", "/v1/topk", shard.Request{Query: "{a}", K: 1})
	}()
	<-b.entered

	w := doJSON(t, h, "GET", "/debug/queries", nil)
	var out struct {
		Queries []inflightQuery `json:"queries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != 1 {
		t.Fatalf("want 1 in-flight query, got %d", len(out.Queries))
	}
	q := out.Queries[0]
	if q.Endpoint != "/v1/topk" || q.Query != "{a}" || q.K != 1 {
		t.Errorf("malformed in-flight entry: %+v", q)
	}
	if q.Stage != qtrace.SpanScan || q.Detail != "blocked-doc" {
		t.Errorf("in-flight stage = %q/%q, want scan/blocked-doc", q.Stage, q.Detail)
	}
	if q.ElapsedMs < 0 || len(q.TraceID) != 32 {
		t.Errorf("malformed elapsed/trace id: %+v", q)
	}

	close(b.release)
	<-done
	w = doJSON(t, h, "GET", "/debug/queries", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != 0 {
		t.Errorf("completed query still listed in /debug/queries: %+v", out.Queries)
	}
}

// TestCandidateSetMissesReported: a document keeps its candidates for
// prb.CandidateSlots thresholds τ, so the next τ a leaf sees finds every
// slot taken on every document it scans. The response stats count those
// scans, each scan span of a traced request marks its own, and /metrics
// totals them.
func TestCandidateSetMissesReported(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "d1", `<r><a><b>x</b></a><a><c>y</c></a></r>`)
	ingest(t, h, "d2", `<r><a><b>z</b></a></r>`)
	// τ = 2|Q| + k: k = 1 … CandidateSlots take every slot of both
	// documents.
	for k := 1; k <= prb.CandidateSlots; k++ {
		if resp := topk(t, h, shard.Request{Query: "{a{b}}", K: k}); resp.Stats.CandidateSetMisses != 0 {
			t.Fatalf("k=%d: %d candidate-set misses with a free slot", k, resp.Stats.CandidateSetMisses)
		}
	}
	w := doJSON(t, h, "POST", "/v1/topk?trace=1", shard.Request{Query: "{a{b}}", K: prb.CandidateSlots + 1})
	if w.Code != http.StatusOK {
		t.Fatalf("traced topk: status %d: %s", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Scanned != 2 || resp.Stats.CandidateSetMisses != 2 {
		t.Fatalf("τ = %d scanned %d documents with %d candidate-set misses, want 2 and 2", 5+prb.CandidateSlots, resp.Stats.Scanned, resp.Stats.CandidateSetMisses)
	}
	for _, s := range resp.Trace.Spans {
		if s.Name == qtrace.SpanScan && (s.Prune == nil || s.Prune.CandidateSetMisses != 1) {
			t.Errorf("scan span of %s does not mark its candidate-set miss: %+v", s.Detail, s.Prune)
		}
	}
	body, _ := scrapeMetrics(t, h)
	if got := metricLine(body, "tasmd_candidate_set_misses_total"); got != "2" {
		t.Errorf("tasmd_candidate_set_misses_total = %q, want 2", got)
	}
}
