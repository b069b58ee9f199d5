package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tasm/corpus"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/race"
	"tasm/internal/tree"
)

// discardWriter is a ResponseWriter that keeps nothing, so the test
// measures the server and not a recorder's growing buffer.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// allocFixture is a corpus of four XMark(1) documents, the benchmark's
// leaf fixture, and the documents its queries are drawn from.
func allocFixture(tb testing.TB) (*corpus.Corpus, []*tree.Tree) {
	tb.Helper()
	c, err := corpus.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	var docs []*tree.Tree
	for i := 0; i < 4; i++ {
		doc, err := datagen.XMark(1).Tree(dict.New(), 1000+int64(i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := c.AddTree(fmt.Sprintf("xmark-%03d", i), doc); err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return c, docs
}

// queryBodies draws n request bodies of batch queries each (one means a
// /v1/topk body) from docs, as the benchmark's leaf workloads do, and
// returns them with the path they are posted to.
func queryBodies(tb testing.TB, docs []*tree.Tree, n, qsize, k, batch int) (string, [][]byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	path := "/v1/topk"
	if batch > 1 {
		path = "/v1/topk-batch"
	}
	var bodies [][]byte
	for len(bodies) < n {
		var qs []string
		for len(qs) < batch {
			q, err := datagen.QueryFromDocument(docs[rng.Intn(len(docs))], rng, qsize+len(qs))
			if err != nil {
				tb.Fatal(err)
			}
			qs = append(qs, q.String())
		}
		req := map[string]any{"query": qs[0], "k": k}
		if batch > 1 {
			req = map[string]any{"queries": qs, "k": k}
		}
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return path, bodies
}

// TestRequestAllocBytes is the tripwire for the benchmark's rss_peak_mb:
// the heap bytes and objects one request allocates on its way through
// the server's handler, for the three leaf request shapes of the
// benchmark (bench/workloads.go) on its XMark fixture, uncached, and for
// a cache hit on each endpoint. A leaf's resident memory above its corpus
// is what requests allocate between collections, so a change that raises
// bytes per request raises the peak. The distance computers' memos are
// not among them: the pooled scan scratch keeps one and lends it to each
// query's computer. The uncached budgets are the most of fifteen runs
// (49.4 / 24.0 / 81.2 KB; median 47.7 / 23.9 / 77.4 — a collection that
// empties the scratch pool makes the next request allocate a scratch and
// its memo again) plus 5 %. A hit replays the stored body, so its bytes
// and objects are the request's decode and key alone; its budgets are
// the most of fifteen runs (7.32 / 8.89 KB and 41.3 / 49.5 objects for
// a /v1/topk and a four-query /v1/topk-batch hit) plus 5 %.
func TestRequestAllocBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	c, docs := allocFixture(t)
	uncached := newServer(c, c, serverConfig{})
	cached := newServer(c, c, serverConfig{cacheSize: 64})

	for _, shape := range []struct {
		name            string
		qsize, k, batch int
		hit             bool
		maxBytes        float64
		maxObjects      float64 // 0: not budgeted
	}{
		{"leaf-ted", 16, 50, 1, false, 1.05 * 49.4e3, 0},
		{"leaf-scan", 8, 5, 1, false, 1.05 * 24.0e3, 0},
		{"leaf-batch", 8, 5, 4, false, 1.05 * 81.2e3, 0},
		{"topk-hit", 8, 5, 1, true, 1.05 * 7.32e3, 1.05 * 41.3},
		{"batch-hit", 8, 5, 4, true, 1.05 * 8.89e3, 1.05 * 49.5},
	} {
		path, bodies := queryBodies(t, docs, 24, shape.qsize, shape.k, shape.batch)
		srv := uncached
		if shape.hit {
			srv = cached
		}
		w := &discardWriter{header: http.Header{}}
		serve := func() {
			for _, body := range bodies {
				w.status = http.StatusOK
				srv.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
				if w.status != http.StatusOK {
					t.Fatalf("%s: status %d for %s", shape.name, w.status, body)
				}
			}
		}
		serve() // fills the scratch pools, and the cache for the hit shapes
		const rounds = 3
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		n := float64(rounds * len(bodies))
		perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
		objects := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.2f KB and %.1f objects per request", shape.name, perReq/1e3, objects)
		if perReq > shape.maxBytes {
			t.Errorf("%s: a request allocates %.2f KB, budget %.2f KB", shape.name, perReq/1e3, shape.maxBytes/1e3)
		}
		if shape.maxObjects > 0 && objects > shape.maxObjects {
			t.Errorf("%s: a request allocates %.1f objects, budget %.1f", shape.name, objects, shape.maxObjects)
		}
	}
}

// BenchmarkQueryCacheHit is one cache hit per iteration on each endpoint,
// through the handler into a writer that keeps nothing: the request's
// decode, its cache key, the lookup and one write of the stored body.
func BenchmarkQueryCacheHit(b *testing.B) {
	c, docs := allocFixture(b)
	srv := newServer(c, c, serverConfig{cacheSize: 64})
	for _, ep := range []struct {
		name  string
		batch int
	}{{"topk", 1}, {"batch", 2}} {
		b.Run(ep.name, func(b *testing.B) {
			path, bodies := queryBodies(b, docs, 16, 8, 5, ep.batch)
			w := &discardWriter{header: http.Header{}}
			for _, body := range bodies {
				srv.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.status = 0
				srv.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(bodies[i%len(bodies)])))
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}
