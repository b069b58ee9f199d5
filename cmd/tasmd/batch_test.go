package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tasm/corpus/shard"
)

func topkBatch(t *testing.T, h http.Handler, req shard.Request) shard.BatchResponse {
	t.Helper()
	w := doJSON(t, h, "POST", "/v1/topk-batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("topk-batch: status %d: %s", w.Code, w.Body)
	}
	var resp shard.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("topk-batch: %v in %s", err, w.Body)
	}
	return resp
}

// TestBatchEndpoint: the batch endpoint returns, per query, exactly what
// the single-query endpoint returns, and the whole batch is answered by
// one scan.
func TestBatchEndpoint(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, h, "a", "<dblp><article><author>smith</author><title>trees</title></article></dblp>")
	ingest(t, h, "b", "<dblp><book><title>graphs</title><author>jones</author></book></dblp>")

	queries := []string{
		"{article{author{smith}}}",
		"{book{title{graphs}}}",
		"{inproceedings{author{nobody-has-this-label}}}",
	}
	resp := topkBatch(t, h, shard.Request{Queries: queries, K: 3, Trees: true})
	if len(resp.Results) != len(queries) {
		t.Fatalf("batch returned %d result sets for %d queries", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		single := topk(t, h, shard.Request{Query: q, K: 3, Trees: true})
		sj, _ := json.Marshal(single.Matches)
		bj, _ := json.Marshal(resp.Results[i])
		if string(sj) != string(bj) {
			t.Errorf("query %d: batch != single\n %s\n %s", i, bj, sj)
		}
	}
	// The third query's labels are unknown to the corpus: they must show
	// up as overlay-local labels, not in the base dictionary.
	if resp.Stats.OverlayLabels == 0 {
		t.Error("batch with never-seen labels reported OverlayLabels = 0")
	}
	if resp.Stats.BaseDictLabels == 0 {
		t.Error("BaseDictLabels = 0 on a corpus with two documents")
	}

	// Identical batch: served from the generation-keyed cache.
	again := topkBatch(t, h, shard.Request{Queries: queries, K: 3, Trees: true})
	if !again.Stats.Cached {
		t.Error("identical batch was not served from the cache")
	}
}

func TestBatchBadInput(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "a", "<r><c>x</c></r>")
	for _, tc := range []struct {
		name string
		req  any
		want int
	}{
		{"no queries", shard.Request{K: 2}, http.StatusBadRequest},
		{"k=0", shard.Request{Queries: []string{"{a}"}}, http.StatusBadRequest},
		{"bad query", shard.Request{Queries: []string{"{unclosed"}, K: 1}, http.StatusBadRequest},
		{"unknown doc", shard.Request{Queries: []string{"{a}"}, K: 1, Docs: []string{"nope"}}, http.StatusBadRequest},
	} {
		w := doJSON(t, h, "POST", "/v1/topk-batch", tc.req)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}
}

// TestLatencyHistogramExported: /metrics carries the per-request latency
// histograms with cumulative buckets, sum and count.
func TestLatencyHistogramExported(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{})
	ingest(t, h, "a", "<r><c>x</c></r>")
	topk(t, h, shard.Request{Query: "{r{c}}", K: 1})
	topkBatch(t, h, shard.Request{Queries: []string{"{r{c}}", "{c{x}}"}, K: 1})

	w := doJSON(t, h, "GET", "/metrics", nil)
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE tasmd_topk_latency_seconds histogram",
		`tasmd_topk_latency_seconds_bucket{le="0.001"}`,
		`tasmd_topk_latency_seconds_bucket{le="+Inf"} 1`,
		"tasmd_topk_latency_seconds_count 1",
		"tasmd_topk_latency_seconds_sum ",
		"# TYPE tasmd_topk_batch_latency_seconds histogram",
		`tasmd_topk_batch_latency_seconds_bucket{le="+Inf"} 1`,
		"tasmd_topk_batch_latency_seconds_count 1",
		"tasmd_topk_batch_requests_total 1",
		"tasmd_topk_batch_queries_total 2",
		"tasmd_dict_base_labels ",
		"tasmd_overlay_labels_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Bucket counts are cumulative: the +Inf bucket equals the count.
	if !strings.Contains(body, `tasmd_topk_latency_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("cumulative +Inf bucket missing:\n%s", body)
	}
}
