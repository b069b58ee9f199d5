package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
)

// newLeaf builds a leaf tasmd handler over its own corpus, serves it from
// an httptest server, and returns a shard client pointing at it.
func newLeaf(t *testing.T, docs map[string]string) (*shard.Client, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, xml := range docs {
		if _, err := c.AddXML(name, strings.NewReader(xml)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(newServer(c, c, serverConfig{}))
	t.Cleanup(srv.Close)
	cl, err := shard.NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

// TestRouterOverLeaves is the two-tier integration test: a router handler
// serving a shard.Group of shard.Clients over two leaf tasmd handlers
// must answer HTTP queries identically to one corpus holding all the
// documents, route batch requests, refuse ingests, and aggregate /v1/docs
// and /healthz.
func TestRouterOverLeaves(t *testing.T) {
	leafDocs := []map[string]string{
		{"a1": `<r><rec><x>1</x><y>2</y></rec><rec><x>1</x></rec></r>`},
		{"b1": `<r><rec><x>1</x><y>3</y></rec><other><z>9</z></other></r>`},
	}
	cl0, c0 := newLeaf(t, leafDocs[0])
	cl1, _ := newLeaf(t, leafDocs[1])
	_ = c0

	// The union oracle ingests the same documents in shard order.
	union, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, docs := range leafDocs {
		for name, xml := range docs {
			if _, err := union.AddXML(name, strings.NewReader(xml)); err != nil {
				t.Fatal(err)
			}
		}
	}

	router := newServer(shard.NewGroup(cl0, cl1), nil, serverConfig{})

	// Query through the router; compare against the union corpus.
	reqBody := `{"query":"{rec{x{1}}{y{2}}}","k":3,"trees":true}`
	w := doJSON(t, router, "POST", "/v1/topk", reqBody)
	if w.Code != http.StatusOK {
		t.Fatalf("router topk: status %d: %s", w.Code, w.Body)
	}
	var got shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	q, err := union.ParseBracket("{rec{x{1}}{y{2}}}")
	if err != nil {
		t.Fatal(err)
	}
	want, err := union.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want) {
		t.Fatalf("router returned %d matches, union %d", len(got.Matches), len(want))
	}
	for i, m := range got.Matches {
		u := want[i]
		if m.Doc != u.Doc.Name || m.Pos != u.Pos || m.Dist != u.Dist || m.Size != u.Size || m.Tree != u.Tree.String() {
			t.Errorf("match %d differs: router %+v union name=%s pos=%d dist=%g size=%d",
				i, m, u.Doc.Name, u.Pos, u.Dist, u.Size)
		}
	}
	if got.Stats.Scanned+got.Stats.Skipped == 0 {
		t.Error("router stats empty; per-shard stats not aggregated")
	}

	// Batch through the router.
	bw := doJSON(t, router, "POST", "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other{z{9}}}"],"k":2}`)
	if bw.Code != http.StatusOK {
		t.Fatalf("router batch: status %d: %s", bw.Code, bw.Body)
	}
	var batch shard.BatchResponse
	if err := json.Unmarshal(bw.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || len(batch.Results[0]) == 0 || len(batch.Results[1]) == 0 {
		t.Fatalf("router batch results malformed: %+v", batch.Results)
	}
	if batch.Results[1][0].Doc != "b1" || batch.Results[1][0].Dist != 0 {
		t.Errorf("batch query 2 should find its exact subtree in b1: %+v", batch.Results[1][0])
	}

	// Aggregated listing and health.
	lw := doJSON(t, router, "GET", "/v1/docs", nil)
	if !strings.Contains(lw.Body.String(), `"a1"`) || !strings.Contains(lw.Body.String(), `"b1"`) {
		t.Errorf("router /v1/docs does not aggregate shards: %s", lw.Body)
	}
	hw := doJSON(t, router, "GET", "/healthz", nil)
	var health struct {
		Docs int `json:"docs"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil || health.Docs != 2 {
		t.Errorf("router healthz docs = %d, want 2 (%s)", health.Docs, hw.Body)
	}

	// Routers are read-only.
	iw := doJSON(t, router, "POST", "/v1/docs", ingestRequest{Name: "x", XML: "<a/>"})
	if iw.Code != http.StatusNotImplemented {
		t.Errorf("router ingest: status %d, want 501", iw.Code)
	}
	dw := doJSON(t, router, "DELETE", "/v1/docs/a1", nil)
	if dw.Code != http.StatusNotImplemented {
		t.Errorf("router delete: status %d, want 501", dw.Code)
	}

	// Metrics work without a local corpus (no base-dictionary gauge).
	mw := doJSON(t, router, "GET", "/metrics", nil)
	if mw.Code != http.StatusOK || !strings.Contains(mw.Body.String(), "tasmd_corpus_docs 2") {
		t.Errorf("router metrics: status %d body %s", mw.Code, mw.Body)
	}
}

// TestGatedEvalsReportedThroughTiers: the count of evaluations the
// bounded Zhang–Shasha rejects at its label-bag rung travels the whole
// stats path — core scan → corpus.Stats → leaf response → shard.Client
// wire → Group merge → router response and /metrics — as part of the
// aborted count. Each leaf holds an exact match followed by records that
// pass the candidate-level gate whole but whose parts each hold too few
// of the query's labels. The count of evaluations answered from the memo
// travels the same path: each leaf also repeats one near match that holds
// all of the query's labels, so its repeats reach the memo.
func TestGatedEvalsReportedThroughTiers(t *testing.T) {
	const nearMatches = 5
	doc := "<r><m><a/><b/><c/><d/></m>" + strings.Repeat("<m><a/><b/><d/><c/></m>", nearMatches) +
		strings.Repeat("<rec><x><a/><b/></x><y><c/><d/></y><m/></rec>", 20) + "</r>"
	cl0, _ := newLeaf(t, map[string]string{"d0": doc})
	cl1, _ := newLeaf(t, map[string]string{"d1": doc})
	router := newServer(shard.NewGroup(cl0, cl1), nil, serverConfig{})

	w := doJSON(t, router, "POST", "/v1/topk", `{"query":"{m{a}{b}{c}{d}}","k":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("router topk: status %d: %s", w.Code, w.Body)
	}
	var got shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != 1 || got.Matches[0].Dist != 0 {
		t.Fatalf("matches = %+v, want the exact subtree", got.Matches)
	}
	if got.Stats.TEDGated == 0 || got.Stats.TEDGated > got.Stats.TEDAborted {
		t.Errorf("router stats: tedGated %d, tedAborted %d: want 0 < gated ≤ aborted", got.Stats.TEDGated, got.Stats.TEDAborted)
	}
	mw := doJSON(t, router, "GET", "/metrics", nil)
	var gated uint64
	fmt.Sscanf(metricLine(mw.Body.String(), "tasmd_ted_evals_gated_total"), "%d", &gated)
	if gated != got.Stats.TEDGated {
		t.Errorf("tasmd_ted_evals_gated_total = %d after one computed query that gated %d", gated, got.Stats.TEDGated)
	}
	if hits, started := got.Stats.TEDMemoHits, got.Stats.TEDAborted+got.Stats.Evaluated; hits != 2*(nearMatches-1) || got.Stats.TEDGated+hits > started {
		t.Errorf("router stats: tedMemoHits %d, tedGated %d, started %d: want %d hits (every repeat of the near match on both leaves), disjoint from the gated",
			hits, got.Stats.TEDGated, started, 2*(nearMatches-1))
	}
	var memo uint64
	fmt.Sscanf(metricLine(mw.Body.String(), "tasmd_ted_evals_memo_total"), "%d", &memo)
	if memo != got.Stats.TEDMemoHits {
		t.Errorf("tasmd_ted_evals_memo_total = %d after one computed query with %d memo hits", memo, got.Stats.TEDMemoHits)
	}
}

// TestRouterShardDownIs500: an unreachable leaf fails the query and the
// listing with a 500 naming the shard, while /healthz still answers.
func TestRouterShardDownIs500(t *testing.T) {
	cl0, _ := newLeaf(t, map[string]string{"a1": `<r><rec><x>1</x></rec></r>`})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more
	clDead, err := shard.NewClient(deadURL)
	if err != nil {
		t.Fatal(err)
	}
	router := newServer(shard.NewGroup(cl0, clDead), nil, serverConfig{})
	w := doJSON(t, router, "POST", "/v1/topk", `{"query":"{rec{x{1}}}","k":1}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("dead shard: status %d, want 500 (%s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), deadURL) {
		t.Errorf("error does not name the dead shard %s: %s", deadURL, w.Body)
	}
	w = doJSON(t, router, "GET", "/v1/docs", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("listing with a dead shard: status %d, want 500 (%s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), deadURL) {
		t.Errorf("listing error does not name the dead shard %s: %s", deadURL, w.Body)
	}
	if w := doJSON(t, router, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz with a dead shard: status %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestRemoveEndpoint: DELETE /v1/docs/{name} tombstones on a leaf,
// invalidates the cache via the generation bump, and 404s unknown names.
func TestRemoveEndpoint(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, h, "keep", `<r><a><b>x</b></a></r>`)
	ingest(t, h, "drop", `<r><a><b>x</b></a></r>`)

	req := shard.Request{Query: "{a{b{x}}}", K: 2}
	first := topk(t, h, req)
	if len(first.Matches) != 2 {
		t.Fatalf("want 2 matches before removal, got %d", len(first.Matches))
	}

	w := doJSON(t, h, "DELETE", "/v1/docs/drop", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", w.Code, w.Body)
	}
	// The generation bumped: the cached 2-match answer must not be served.
	after := topk(t, h, req)
	if after.Stats.Cached {
		t.Fatal("cache served a pre-removal answer")
	}
	for _, m := range after.Matches {
		if m.Doc == "drop" {
			t.Fatalf("removed document still ranked: %+v", m)
		}
	}

	if w := doJSON(t, h, "DELETE", "/v1/docs/drop", nil); w.Code != http.StatusNotFound {
		t.Errorf("re-delete: status %d, want 404", w.Code)
	}
	if w := doJSON(t, h, "DELETE", "/v1/docs/ghost", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown delete: status %d, want 404", w.Code)
	}
}

// TestRunFlagParsing pins run's topology parsing: the "|" replica
// syntax builds a server that comes up (and shuts straight down under
// an already-cancelled context), bad URLs and contradictory flags fail.
func TestRunFlagParsing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, "", "http://127.0.0.1:1|http://127.0.0.1:2, http://127.0.0.1:3", time.Millisecond,
		"127.0.0.1:0", "", corpus.VerifyScrub, serverConfig{}, time.Millisecond)
	if err != nil {
		t.Fatalf("replica syntax: %v", err)
	}
	if err := run(ctx, "", "://bad", 0, "127.0.0.1:0", "", corpus.VerifyScrub, serverConfig{}, time.Millisecond); err == nil {
		t.Fatal("invalid shard URL accepted")
	}
	if err := run(ctx, "", "", 0, "127.0.0.1:0", "", corpus.VerifyScrub, serverConfig{}, time.Millisecond); err == nil {
		t.Fatal("neither -dir nor -shards accepted")
	}
	if err := run(ctx, t.TempDir(), "http://x", 0, "127.0.0.1:0", "", corpus.VerifyScrub, serverConfig{}, time.Millisecond); err == nil {
		t.Fatal("both -dir and -shards accepted")
	}
}

// TestRouterPartialDegradation drives the degraded path end to end over
// HTTP: a router over one live leaf and one dead shard fails by default,
// answers with "partial":true naming the degraded shard in the response
// stats, never caches the degraded answer, and exports the degradation
// and breaker state on /metrics.
func TestRouterPartialDegradation(t *testing.T) {
	clLive, _ := newLeaf(t, map[string]string{"a1": `<r><rec><x>1</x></rec></r>`})
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close() // nothing listens here any more
	clDead, err := shard.NewClient(deadURL, shard.WithRetryPolicy(shard.RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Wire the same per-shard telemetry run() builds, so /metrics carries
	// the breaker gauge for both shards.
	stLive := &shardStats{name: clLive.Name(), breaker: clLive.BreakerState}
	stDead := &shardStats{name: clDead.Name(), breaker: clDead.BreakerState}
	router := newServer(
		shard.NewGroup(&instrumentedShard{Client: clLive, st: stLive}, &instrumentedShard{Client: clDead, st: stDead}),
		nil,
		serverConfig{cacheSize: 8, shards: []*shardStats{stLive, stDead}})

	// Default: fail loud.
	w := doJSON(t, router, "POST", "/v1/topk", `{"query":"{rec{x{1}}}","k":2}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("default mode: status %d, want 500 (%s)", w.Code, w.Body)
	}

	// Partial: the survivor answers, the loss is reported.
	pReq := `{"query":"{rec{x{1}}}","k":2,"partial":true}`
	w = doJSON(t, router, "POST", "/v1/topk", pReq)
	if w.Code != http.StatusOK {
		t.Fatalf("partial mode: status %d (%s)", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 || resp.Matches[0].Doc != "a1" {
		t.Fatalf("partial answer lost the survivor's matches: %+v", resp.Matches)
	}
	if len(resp.Stats.Degraded) != 1 || resp.Stats.Degraded[0] != deadURL {
		t.Fatalf("stats.degraded = %v, want [%s]", resp.Stats.Degraded, deadURL)
	}

	// A degraded answer must not be served from the cache once the shard
	// recovers — it is never cached at all.
	w = doJSON(t, router, "POST", "/v1/topk", pReq)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Cached {
		t.Fatal("degraded answer was cached")
	}

	// Batch degrades the same way.
	w = doJSON(t, router, "POST", "/v1/topk-batch", `{"queries":["{rec{x{1}}}"],"k":2,"partial":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("partial batch: status %d (%s)", w.Code, w.Body)
	}
	var bresp shard.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 1 || len(bresp.Results[0]) == 0 {
		t.Fatalf("partial batch lost the survivor's matches: %+v", bresp.Results)
	}
	if len(bresp.Stats.Degraded) != 1 {
		t.Fatalf("batch stats.degraded = %v, want one shard", bresp.Stats.Degraded)
	}

	// The degradation and the breaker state are visible on /metrics.
	mw := doJSON(t, router, "GET", "/metrics", nil)
	body := mw.Body.String()
	for _, want := range []string{"tasmd_degraded_queries_total 3", "tasmd_degraded_shards_total 3", "tasmd_shard_breaker_state"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
