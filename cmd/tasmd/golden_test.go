package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasm/corpus"
	"tasm/corpus/shard"
)

// updateGolden rewrites the golden response files instead of comparing
// against them: TASMD_UPDATE_GOLDEN=1 go test -run TestGoldenResponses.
var updateGolden = os.Getenv("TASMD_UPDATE_GOLDEN") == "1"

// TestGoldenResponses pins the exact bytes both query endpoints answer
// with — on a leaf (trees on and off, an empty result, k beyond the
// match count, a cache-hit replay) and on a router (a partial answer
// with a degraded shard over a leaf that quarantined a document, and a
// cache-hit replay of the router's own result cache). Any
// change to the wire schema's field names, order or omission rules
// shows up here as a byte difference.
func TestGoldenResponses(t *testing.T) {
	const (
		docA = `<r><rec><x>1</x><y>2</y></rec><rec><x>1</x></rec></r>`
		docB = `<r><rec><x>1</x><y>3</y></rec><other><z>9</z></other></r>`
	)
	leaf, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, leaf, "a", docA)
	ingest(t, leaf, "b", docB)
	empty, _ := newTestServer(t, serverConfig{})
	router, cachedRouter := goldenRouters(t, docA, docB)

	type step struct {
		h    http.Handler
		path string
		body string
	}
	for _, tc := range []struct {
		name string
		// steps run in order; the last one's response is the golden.
		steps []step
	}{
		{"topk_trees", []step{{leaf, "/v1/topk", `{"query":"{rec{x{1}}{y{2}}}","k":3,"trees":true}`}}},
		{"topk_notrees", []step{{leaf, "/v1/topk", `{"query":"{rec{x{1}}{y{2}}}","k":3}`}}},
		{"topk_empty", []step{{empty, "/v1/topk", `{"query":"{rec{x{1}}}","k":3}`}}},
		{"topk_k_over_matches", []step{{leaf, "/v1/topk", `{"query":"{other{z{9}}}","k":100,"trees":true}`}}},
		{"batch_trees", []step{{leaf, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other{z{9}}}"],"k":2,"trees":true}`}}},
		{"batch_notrees", []step{{leaf, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other{z{9}}}"],"k":2}`}}},
		{"batch_empty", []step{{empty, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{a}"],"k":2}`}}},
		{"batch_k_over_matches", []step{{leaf, "/v1/topk-batch", `{"queries":["{y{3}}","{x}"],"k":100}`}}},
		{"topk_cache_hit", []step{
			{leaf, "/v1/topk", `{"query":"{rec{y{3}}}","k":2,"trees":true}`},
			{leaf, "/v1/topk", `{"query":"{rec{y{3}}}","k":2,"trees":true}`},
		}},
		{"batch_cache_hit", []step{
			{leaf, "/v1/topk-batch", `{"queries":["{rec{y{3}}}","{z}"],"k":2}`},
			{leaf, "/v1/topk-batch", `{"queries":["{rec{y{3}}}","{z}"],"k":2}`},
		}},
		{"router_partial", []step{{router, "/v1/topk", `{"query":"{rec{x{1}}}","k":2,"trees":true,"partial":true}`}}},
		{"router_batch_partial", []step{{router, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other}"],"k":2,"partial":true}`}}},
		{"router_topk_cache_hit", []step{
			{cachedRouter, "/v1/topk", `{"query":"{rec{x{1}}}","k":2,"trees":true}`},
			{cachedRouter, "/v1/topk", `{"query":"{rec{x{1}}}","k":2,"trees":true}`},
		}},
		{"router_batch_cache_hit", []step{
			{cachedRouter, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other}"],"k":2}`},
			{cachedRouter, "/v1/topk-batch", `{"queries":["{rec{x{1}}}","{other}"],"k":2}`},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w *httptest.ResponseRecorder
			for _, s := range tc.steps {
				if w = doJSON(t, s.h, "POST", s.path, s.body); w.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", s.path, s.body, w.Code, w.Body)
				}
			}
			file := filepath.Join("testdata", "golden", tc.name+".json")
			if updateGolden {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("response bytes differ from %s\n got: %s\nwant: %s", file, w.Body, want)
			}
		})
	}
}

// goldenRouters returns two routers over a live leaf holding docA, docB
// and a third document its scrub quarantined: the first also routes to a
// shard named "dead" that nothing answers for, the second routes to the
// live leaf alone and caches its (undegraded) results.
func goldenRouters(t *testing.T, docA, docB string) (partial, cached http.Handler) {
	t.Helper()
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ name, xml string }{{"a", docA}, {"b", docB}, {"bad", "<r><doomed/></r>"}} {
		if _, err := c.AddXML(d.name, strings.NewReader(d.xml)); err != nil {
			t.Fatal(err)
		}
	}
	store := filepath.Join(c.Dir(), "docs", "3.store")
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(store, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Verify(); err != nil || len(rep.Quarantined) != 1 {
		t.Fatalf("scrub: %+v, %v; want one quarantined document", rep, err)
	}
	srv := httptest.NewServer(newServer(c, c, serverConfig{}))
	t.Cleanup(srv.Close)
	live, err := shard.NewClient(srv.URL, shard.WithName("live"))
	if err != nil {
		t.Fatal(err)
	}
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadSrv.Close()
	dead, err := shard.NewClient(deadSrv.URL, shard.WithName("dead"),
		shard.WithRetryPolicy(shard.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return newServer(shard.NewGroup(live, dead), nil, serverConfig{}),
		newServer(shard.NewGroup(live), nil, serverConfig{cacheSize: 8})
}
