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

// TestRequestAllocBytes is the tripwire for the benchmark's rss_peak_mb:
// the heap bytes and objects one uncached request allocates on its way
// through the server's handler, for the three leaf request shapes of the
// benchmark (bench/workloads.go) on its XMark fixture. A leaf's resident
// memory above its corpus is what requests allocate between collections,
// so a change that raises bytes per request raises the peak. The distance
// computers' memos are not among them: the pooled scan scratch keeps one
// and lends it to each query's computer. The budgets are the most of
// fifteen runs (49.4 / 24.0 / 81.2 KB; median 47.7 / 23.9 / 77.4 — a
// collection that empties the scratch pool makes the next request
// allocate a scratch and its memo again) plus 5 %.
func TestRequestAllocBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var docs []*tree.Tree
	for i := 0; i < 4; i++ {
		doc, err := datagen.XMark(1).Tree(dict.New(), 1000+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddTree(fmt.Sprintf("xmark-%03d", i), doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	srv := newServer(c, c, serverConfig{})

	for _, shape := range []struct {
		name            string
		qsize, k, batch int
		maxBytes        float64
	}{
		{"leaf-ted", 16, 50, 1, 1.05 * 49.4e3},
		{"leaf-scan", 8, 5, 1, 1.05 * 24.0e3},
		{"leaf-batch", 8, 5, 4, 1.05 * 81.2e3},
	} {
		rng := rand.New(rand.NewSource(1))
		path := "/v1/topk"
		if shape.batch > 1 {
			path = "/v1/topk-batch"
		}
		var bodies [][]byte
		for len(bodies) < 24 {
			var qs []string
			for len(qs) < shape.batch {
				q, err := datagen.QueryFromDocument(docs[rng.Intn(len(docs))], rng, shape.qsize+len(qs))
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, q.String())
			}
			req := map[string]any{"query": qs[0], "k": shape.k}
			if shape.batch > 1 {
				req = map[string]any{"queries": qs, "k": shape.k}
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
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
		serve() // fills the scratch pools
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
		t.Logf("%s: %.1f KB and %.0f objects per request", shape.name, perReq/1e3, float64(after.Mallocs-before.Mallocs)/n)
		if perReq > shape.maxBytes {
			t.Errorf("%s: a request allocates %.1f KB, budget %.1f KB", shape.name, perReq/1e3, shape.maxBytes/1e3)
		}
	}
}
