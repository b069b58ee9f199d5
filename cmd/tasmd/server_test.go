package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
)

func newTestServer(t *testing.T, cfg serverConfig) (http.Handler, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return newServer(c, c, cfg), c
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var r *bytes.Reader
	switch b := body.(type) {
	case nil:
		r = bytes.NewReader(nil)
	case string:
		r = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, r)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func ingest(t *testing.T, h http.Handler, name, xml string) {
	t.Helper()
	w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: name, XML: xml})
	if w.Code != http.StatusCreated {
		t.Fatalf("ingest %q: status %d: %s", name, w.Code, w.Body)
	}
}

func topk(t *testing.T, h http.Handler, req shard.Request) shard.TopKResponse {
	t.Helper()
	w := doJSON(t, h, "POST", "/v1/topk", req)
	if w.Code != http.StatusOK {
		t.Fatalf("topk: status %d: %s", w.Code, w.Body)
	}
	var resp shard.TopKResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("topk: %v in %s", err, w.Body)
	}
	return resp
}

// TestMetricsEndpoint: GET /metrics serves Prometheus text format with
// the request, cache and pruning counters advancing as the daemon works.
func TestMetricsEndpoint(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, h, "a", "<dblp><article><author>smith</author><title>trees</title></article></dblp>")
	ingest(t, h, "b", "<dblp><book><title>graphs</title></book></dblp>")
	// Two identical queries: the second must be a cache hit.
	req := shard.Request{Query: "{article{author{smith}}}", K: 2}
	topk(t, h, req)
	resp := topk(t, h, req)
	if !resp.Stats.Cached {
		t.Fatal("second identical query was not served from the cache")
	}

	w := doJSON(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	body := w.Body.String()
	wantLines := []string{
		"tasmd_topk_requests_total 2",
		"tasmd_topk_cache_hits_total 1",
		"tasmd_ingests_total 2",
		"tasmd_corpus_docs 2",
		"# TYPE tasmd_docs_scanned_total counter",
		"# TYPE tasmd_ted_evals_completed_total counter",
		"# HELP tasmd_candidates_hist_skipped_total",
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// The computed (non-cached) run must have recorded scan work.
	var scanned, evaluated int
	fmt.Sscanf(metricLine(body, "tasmd_docs_scanned_total"), "%d", &scanned)
	fmt.Sscanf(metricLine(body, "tasmd_ted_evals_completed_total"), "%d", &evaluated)
	if scanned == 0 {
		t.Error("tasmd_docs_scanned_total = 0 after a computed query")
	}
	if evaluated == 0 {
		t.Error("tasmd_ted_evals_completed_total = 0 after a computed query")
	}
}

// metricLine extracts the value field of a metric sample line.
func metricLine(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

func TestBadInput(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{maxBatch: 2})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"not json", "/v1/topk", `{{{`, http.StatusBadRequest},
		{"no query", "/v1/topk", `{"k":3}`, http.StatusBadRequest},
		{"both queries", "/v1/topk", `{"query":"{a}","queryXml":"<a/>","k":3}`, http.StatusBadRequest},
		{"k zero", "/v1/topk", `{"query":"{a}","k":0}`, http.StatusBadRequest},
		{"k negative", "/v1/topk", `{"query":"{a}","k":-2}`, http.StatusBadRequest},
		{"k over limit", "/v1/topk", `{"query":"{a}","k":1000000}`, http.StatusBadRequest},
		{"unknown field", "/v1/topk", `{"query":"{a}","k":1,"nope":true}`, http.StatusBadRequest},
		{"bad bracket query", "/v1/topk", `{"query":"{a","k":1}`, http.StatusBadRequest},
		{"unknown doc", "/v1/topk", `{"query":"{a}","k":1,"docs":["ghost"]}`, http.StatusBadRequest},
		// Each endpoint takes its own subset of the shared request fields;
		// carrying one of the other endpoint's fields, even empty, is a 400.
		{"topk with queries", "/v1/topk", `{"query":"{a}","queries":["{a}"],"k":1}`, http.StatusBadRequest},
		{"topk with queries only", "/v1/topk", `{"queries":["{a}"],"k":1}`, http.StatusBadRequest},
		{"topk with empty queries", "/v1/topk", `{"query":"{a}","queries":[],"k":1}`, http.StatusBadRequest},
		{"topk with null queries", "/v1/topk", `{"query":"{a}","queries":null,"k":1}`, http.StatusBadRequest},
		{"batch with query", "/v1/topk-batch", `{"queries":["{a}"],"query":"{a}","k":1}`, http.StatusBadRequest},
		{"batch with empty query", "/v1/topk-batch", `{"queries":["{a}"],"query":"","k":1}`, http.StatusBadRequest},
		{"batch with queryXml", "/v1/topk-batch", `{"queries":["{a}"],"queryXml":"<a/>","k":1}`, http.StatusBadRequest},
		{"batch with workers", "/v1/topk-batch", `{"queries":["{a}"],"k":1,"workers":1}`, http.StatusBadRequest},
		{"batch with zero workers", "/v1/topk-batch", `{"queries":["{a}"],"k":1,"workers":0}`, http.StatusBadRequest},
		{"batch with empty queries", "/v1/topk-batch", `{"queries":[],"k":1}`, http.StatusBadRequest},
		{"batch without queries", "/v1/topk-batch", `{"k":1}`, http.StatusBadRequest},
		{"batch over max-batch", "/v1/topk-batch", `{"queries":["{a}","{b}","{c}"],"k":1}`, http.StatusBadRequest},
		{"batch unknown field", "/v1/topk-batch", `{"queries":["{a}"],"k":1,"nope":true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := doJSON(t, h, "POST", tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}
	// Ingest errors.
	if w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "", XML: "<a/>"}); w.Code != http.StatusBadRequest {
		t.Errorf("empty name: status %d, want 400", w.Code)
	}
	if w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "x", XML: "<a><b"}); w.Code != http.StatusBadRequest {
		t.Errorf("bad xml: status %d, want 400", w.Code)
	}
	ingest(t, h, "x", "<a/>")
	if w := doJSON(t, h, "POST", "/v1/docs", ingestRequest{Name: "x", XML: "<a/>"}); w.Code != http.StatusConflict {
		t.Errorf("duplicate name: status %d, want 409", w.Code)
	}
}

// TestWorkersBounded pins the edge bound on ranges per document scan: a
// /v1/topk "workers" outside [-1, GOMAXPROCS] is a 400 — each range keeps
// computers and a memo of its own in the pooled scratch, so an unbounded
// value is unbounded memory — and so is a -workers flag at startup.
func TestWorkersBounded(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "d", `<r><a><b>x</b></a><a><b>y</b></a></r>`)
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		workers, want int
	}{
		{-1, http.StatusOK},
		{0, http.StatusOK},
		{procs, http.StatusOK},
		{-2, http.StatusBadRequest},
		{procs + 1, http.StatusBadRequest},
		{100000, http.StatusBadRequest},
	} {
		body := fmt.Sprintf(`{"query":"{a{b}}","k":2,"workers":%d}`, c.workers)
		if w := doJSON(t, h, "POST", "/v1/topk", body); w.Code != c.want {
			t.Errorf("workers %d: status %d, want %d (%s)", c.workers, w.Code, c.want, w.Body)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{-2, procs + 1} {
		err := run(ctx, t.TempDir(), "", 0, "127.0.0.1:0", "", corpus.VerifyScrub, serverConfig{workers: n}, time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %d: run returned %v, want a -workers error", n, err)
		}
	}
}

func TestIngestListQueryHealthz(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)
	// Raw XML ingest path.
	req := httptest.NewRequest("POST", "/v1/docs?name=d2", strings.NewReader(`<r><c>y</c></r>`))
	req.Header.Set("Content-Type", "application/xml")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("raw XML ingest: status %d: %s", w.Code, w.Body)
	}

	lw := doJSON(t, h, "GET", "/v1/docs", nil)
	if lw.Code != http.StatusOK || !strings.Contains(lw.Body.String(), `"d2"`) {
		t.Fatalf("list: status %d body %s", lw.Code, lw.Body)
	}
	hw := doJSON(t, h, "GET", "/healthz", nil)
	var health struct {
		Status string `json:"status"`
		Docs   int    `json:"docs"`
	}
	if err := json.Unmarshal(hw.Body.Bytes(), &health); err != nil || health.Status != "ok" || health.Docs != 2 {
		t.Fatalf("healthz: %s (err %v)", hw.Body, err)
	}

	resp := topk(t, h, shard.Request{Query: "{a{b{x}}}", K: 2, Trees: true})
	if len(resp.Matches) != 2 || resp.Matches[0].Dist != 0 || resp.Matches[0].Doc != "d1" {
		t.Fatalf("unexpected matches: %+v", resp.Matches)
	}
	if resp.Matches[0].Tree == "" {
		t.Fatal("trees requested but not returned")
	}
}

// TestFilterSkipsOverHTTP is the acceptance-criterion integration test:
// on a crafted corpus the prefilter must skip at least one document while
// the response matches the exhaustive scan byte for byte.
func TestFilterSkipsOverHTTP(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "near", `<r><a><b>x</b><c>y</c></a><a><b>x</b></a></r>`)
	ingest(t, h, "far", `<zoo><pen><yak>z</yak></pen><pen><emu>w</emu></pen></zoo>`)

	filtered := doJSON(t, h, "POST", "/v1/topk",
		`{"query":"{a{b{x}}{c{y}}}","k":2,"trees":true}`)
	exhaustive := doJSON(t, h, "POST", "/v1/topk",
		`{"query":"{a{b{x}}{c{y}}}","k":2,"trees":true,"exhaustive":true}`)
	if filtered.Code != http.StatusOK || exhaustive.Code != http.StatusOK {
		t.Fatalf("status %d / %d", filtered.Code, exhaustive.Code)
	}
	var fr, er shard.TopKResponse
	if err := json.Unmarshal(filtered.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(exhaustive.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if fr.Stats.Skipped < 1 {
		t.Fatalf("prefilter skipped %d documents, want ≥ 1 (stats %+v)", fr.Stats.Skipped, fr.Stats)
	}
	if er.Stats.Skipped != 0 || er.Stats.Scanned != 2 {
		t.Fatalf("exhaustive scan should visit everything: %+v", er.Stats)
	}
	fm, err := json.Marshal(fr.Matches)
	if err != nil {
		t.Fatal(err)
	}
	em, err := json.Marshal(er.Matches)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fm, em) {
		t.Fatalf("filtered and exhaustive matches differ:\n %s\n %s", fm, em)
	}
	if fr.Matches[0].Dist != 0 {
		t.Fatalf("query occurs verbatim in 'near': %+v", fr.Matches[0])
	}
}

// TestCacheHitsAndInvalidation checks, on both query endpoints, that a
// repeat query is answered from the cache with the miss's exact bytes
// except for "cached":true, that an entry keeps replaying those bytes
// while other queries are cached and served after it (an entry must not
// alias a buffer a later answer reuses), and that an ingest makes every
// entry stale.
func TestCacheHitsAndInvalidation(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 16})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)
	post := func(path, body string) []byte {
		t.Helper()
		w := doJSON(t, h, "POST", path, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	type entry struct{ path, body string }
	entries := []entry{
		{"/v1/topk", `{"query":"{a{b{x}}}","k":1,"trees":true}`},
		{"/v1/topk-batch", `{"queries":["{a{b{x}}}","{b{x}}"],"k":2}`},
	}
	hits := make([][]byte, len(entries))
	for i, e := range entries {
		miss := post(e.path, e.body)
		if n := bytes.Count(miss, []byte(`"cached":false`)); n != 1 {
			t.Fatalf("%s: first answer must be a miss, found %d \"cached\":false in %s", e.path, n, miss)
		}
		want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1)
		if hits[i] = post(e.path, e.body); !bytes.Equal(hits[i], want) {
			t.Fatalf("%s: cache hit differs from the miss beyond \"cached\":\n got: %s\nwant: %s", e.path, hits[i], want)
		}
	}
	for i := 0; i < 12; i++ {
		e := entry{"/v1/topk", fmt.Sprintf(`{"query":"{a{b{x%d}}}","k":%d}`, i, 1+i%3)}
		if i%2 == 1 {
			e = entry{"/v1/topk-batch", fmt.Sprintf(`{"queries":["{a{x%d}}","{b}"],"k":%d,"trees":true}`, i, 1+i%3)}
		}
		post(e.path, e.body)
		if hit := post(e.path, e.body); !bytes.Contains(hit, []byte(`"cached":true`)) {
			t.Fatalf("%s %s: repeat not served from cache: %s", e.path, e.body, hit)
		}
	}
	for i, e := range entries {
		if got := post(e.path, e.body); !bytes.Equal(got, hits[i]) {
			t.Fatalf("%s: entry changed after later answers were cached:\n got: %s\nwant: %s", e.path, got, hits[i])
		}
	}
	// Ingest bumps the generation: no entry may be used any more.
	ingest(t, h, "d2", `<r><a><b>x</b></a></r>`)
	for _, e := range entries {
		if got := post(e.path, e.body); !bytes.Contains(got, []byte(`"cached":false`)) {
			t.Fatalf("%s: cache must miss after ingest: %s", e.path, got)
		}
	}
}

// TestConcurrentTopK serves many concurrent queries (mixed with ingests)
// through the concurrency limiter; run with -race.
func TestConcurrentTopK(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8, maxConcurrent: 3})
	ingest(t, h, "base", `<r><a><b>x</b><c>y</c></a></r>`)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Vary k so some requests miss the cache.
				resp := doJSON(t, h, "POST", "/v1/topk",
					fmt.Sprintf(`{"query":"{a{b{x}}}","k":%d}`, 1+(g+i)%3))
				if resp.Code != http.StatusOK {
					errs <- fmt.Sprintf("goroutine %d: status %d: %s", g, resp.Code, resp.Body)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			ingest(t, h, fmt.Sprintf("doc%d", i), `<r><c><d>z</d></c></r>`)
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.put("c", []byte("3")) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should survive")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	disabled := newLRUCache(0)
	disabled.put("x", []byte("1"))
	if _, ok := disabled.get("x"); ok {
		t.Fatal("disabled cache must not store")
	}
}

// TestTornStoreQuarantinedUnderVerifyOff: a store torn on disk before
// Open cannot be decoded into columns, the one form a leaf serves a
// document in. -verify=off skips only the checksums, so the leaf still
// quarantines the document and answers over the survivors: 200, the loss
// in stats.quarantined and tasmd_quarantined_docs. (A ScanError still
// maps to 500: TestRouterShardDownIs500.)
func TestTornStoreQuarantinedUnderVerifyOff(t *testing.T) {
	h, c := newTestServer(t, serverConfig{})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)
	ingest(t, h, "d2", `<r><a><c>y</c></a></r>`)
	tearStore(t, c)
	torn, err := corpus.Open(c.Dir(), corpus.WithVerifyMode(corpus.VerifyOff))
	if err != nil {
		t.Fatal(err)
	}
	th := newServer(torn, torn, serverConfig{})
	resp := topk(t, th, shard.Request{Query: "{a{b{x}}}", K: 3})
	if resp.Stats.Quarantined != 1 {
		t.Errorf("stats.quarantined = %d, want 1", resp.Stats.Quarantined)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches from the surviving document")
	}
	for _, m := range resp.Matches {
		if m.Doc != "d2" {
			t.Errorf("match from %q, want only the survivor d2", m.Doc)
		}
	}
	if w := doJSON(t, th, "GET", "/metrics", nil); !strings.Contains(w.Body.String(), "\ntasmd_quarantined_docs 1\n") {
		t.Errorf("/metrics lacks tasmd_quarantined_docs 1:\n%s", w.Body)
	}
}

// TestStoreDamageAfterLoadChangesNothing is the converse: once a document
// is loaded, nothing done to its file changes an answer or crashes a scan
// — not unlinking it, not a flipped label id, not a tear — while the
// scrub still sees the damage and quarantines it.
func TestStoreDamageAfterLoadChangesNothing(t *testing.T) {
	h, c := newTestServer(t, serverConfig{})
	ingest(t, h, "d1", `<r><a><b>x</b></a></r>`)
	ingest(t, h, "d2", `<r><a><c>y</c></a></r>`)
	const query = `{"query":"{a{b{x}}}","k":3}`
	before := doJSON(t, h, "POST", "/v1/topk", query)
	if before.Code != http.StatusOK {
		t.Fatalf("intact corpus: status %d (%s)", before.Code, before.Body)
	}

	store := filepath.Join(c.Dir(), "docs", "1.store")
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-12] ^= 0x01 // the label id of the first of the 4 items: x, the best match's leaf
	write := func(damaged []byte) func() error {
		return func() error { return os.WriteFile(store, damaged, 0o644) }
	}
	for _, step := range []struct {
		name   string
		damage func() error
	}{
		{"unlinked", func() error { return os.Remove(store) }},
		{"flipped label id", write(flipped)},
		{"torn", write(data[:len(data)-10])},
	} {
		if err := step.damage(); err != nil {
			t.Fatal(err)
		}
		after := doJSON(t, h, "POST", "/v1/topk", query)
		if after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
			t.Fatalf("%s after load: status %d\n got  %s want %s", step.name, after.Code, after.Body, before.Body)
		}
	}

	w := doJSON(t, h, "POST", "/v1/admin/verify", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"d1"`) {
		t.Fatalf("verify after damage: status %d, want d1 quarantined (%s)", w.Code, w.Body)
	}
	if docs, _ := c.Docs(context.Background()); len(docs) != 1 || docs[0].Name != "d2" {
		t.Fatalf("after verify the corpus serves %v, want only d2", docs)
	}
}

// tearStore truncates the first document's store into its item region,
// past the 4-byte CRC trailer, so even a load that skips the checksum
// cannot decode it.
func tearStore(t *testing.T, c *corpus.Corpus) {
	t.Helper()
	store := filepath.Join(c.Dir(), "docs", "1.store")
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionHonoursCancellation: with every scan slot taken, a request
// whose client has gone answers 503 from the admission queue instead of
// waiting for a slot it would scan in for nobody — on either endpoint.
func TestAdmissionHonoursCancellation(t *testing.T) {
	b := &blockingSearcher{entered: make(chan struct{}), release: make(chan struct{})}
	h := newServer(b, nil, serverConfig{maxConcurrent: 1})
	holder := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/topk", strings.NewReader(`{"query":"{a}","k":1}`)))
		holder <- w.Code
	}()
	<-b.entered // the one slot is held

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for path, body := range map[string]string{
		"/v1/topk":       `{"query":"{a}","k":1}`,
		"/v1/topk-batch": `{"queries":["{a}","{b}"],"k":1}`,
	} {
		req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(gone)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with a cancelled client and no free slot: status %d, want 503: %s", path, w.Code, w.Body)
		}
	}

	close(b.release)
	if code := <-holder; code != http.StatusOK {
		t.Errorf("the admitted request: status %d, want 200", code)
	}
}
