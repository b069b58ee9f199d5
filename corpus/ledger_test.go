package corpus_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"tasm/corpus"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/tree"
	"tasm/internal/xmlstream"
)

var update = flag.Bool("update", false, "rewrite corpus/testdata/ledger.json from this build")

// ledgerPools are the request shapes the work ledger runs, after the
// serving benchmark's leaf workloads: |Q| of a request's first query (a
// batch's others count up from it), k, queries per request, and the
// number of distinct requests drawn. The three leaf pools are the
// requests the benchmark's traced pass sends at seed 1 (256 queries), so
// a sum over 256 is its per-query figure.
var ledgerPools = []struct {
	name            string
	qsize, k, batch int
	requests        int
}{
	{"leaf-scan", 8, 5, 1, 256},
	{"leaf-ted", 16, 50, 1, 256},
	{"leaf-batch", 8, 5, 4, 64},
	{"q8-k50", 8, 50, 1, 128},
}

// ledgerEntry is one pool's line of the ledger: every numeric field of
// corpus.Stats summed over the pool's requests, keyed by its JSON name,
// and a digest of every answer.
type ledgerEntry struct {
	Requests int               `json:"requests"`
	Queries  int               `json:"queries"`
	Sums     map[string]uint64 `json:"sums"`
	Answers  string            `json:"answers"`
}

// TestWorkLedger pins the work the query path does, counter by counter:
// 4 × XMark(1) at seeds 1000–1003 (the serving benchmark's leaf corpus at
// seed 1, ingested as the same XML), pools of subtree queries drawn as the
// benchmark draws them, each run sequentially. Any moved counter or answer
// fails with a per-counter diff; a counter added to corpus.Stats joins the
// ledger through -update:
//
//	go test -run TestWorkLedger ./corpus -update
func TestWorkLedger(t *testing.T) {
	got := runLedger(t)
	path := filepath.Join("testdata", "ledger.json")
	body, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	if *update {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if bytes.Equal(raw, body) {
		return
	}
	var want map[string]ledgerEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range ledgerPools {
		g, w := got[p.name], want[p.name]
		if g.Requests != w.Requests || g.Queries != w.Queries {
			t.Errorf("%s: %d requests / %d queries, ledger has %d / %d", p.name, g.Requests, g.Queries, w.Requests, w.Queries)
		}
		if g.Answers != w.Answers {
			t.Errorf("%s: answer digest %s, ledger has %s", p.name, g.Answers, w.Answers)
		}
		for _, key := range unionKeys(g.Sums, w.Sums) {
			gv, gok := g.Sums[key]
			wv, wok := w.Sums[key]
			switch {
			case !wok:
				t.Errorf("%s: counter %q = %d is not in the ledger (record it with -update)", p.name, key, gv)
			case !gok:
				t.Errorf("%s: ledger counter %q = %d is gone", p.name, key, wv)
			case gv != wv:
				t.Errorf("%s: %s = %d, ledger has %d (%+d)", p.name, key, gv, wv, int64(gv)-int64(wv))
			}
		}
	}
	if !t.Failed() {
		t.Errorf("ledger bytes differ from %s without a differing value (rewrite it with -update)", path)
	}
}

// ledgerCorpus is the ledger's fixture: 4 × XMark(1) at seeds 1000–1003,
// ingested as XML, with the documents' trees to draw queries from.
func ledgerCorpus(tb testing.TB) (*corpus.Corpus, []*tree.Tree) {
	c, err := corpus.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	ds := datagen.XMark(1)
	var docs []*tree.Tree
	for i := 0; i < 4; i++ {
		doc, err := ds.Tree(dict.New(), 1000+int64(i))
		if err != nil {
			tb.Fatal(err)
		}
		var sb strings.Builder
		if err := xmlstream.WriteTree(&sb, doc); err != nil {
			tb.Fatal(err)
		}
		if _, err := c.AddXML(fmt.Sprintf("%s-%03d", ds.Name(), i), strings.NewReader(sb.String())); err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	return c, docs
}

// parseRequests parses a pool's requests in c's dictionary.
func parseRequests(tb testing.TB, c *corpus.Corpus, pool [][]string) [][]*tree.Tree {
	out := make([][]*tree.Tree, len(pool))
	for r, qs := range pool {
		out[r] = make([]*tree.Tree, len(qs))
		for i, s := range qs {
			q, err := c.ParseBracket(s)
			if err != nil {
				tb.Fatal(err)
			}
			out[r][i] = q
		}
	}
	return out
}

func runLedger(t *testing.T) map[string]ledgerEntry {
	ctx := context.Background()
	c, docs := ledgerCorpus(t)
	out := map[string]ledgerEntry{}
	for _, p := range ledgerPools {
		pool := drawRequests(t, docs, p.qsize, p.batch, p.requests)
		e := ledgerEntry{Requests: len(pool), Sums: map[string]uint64{}}
		h := sha256.New()
		for _, queries := range parseRequests(t, c, pool) {
			var stats corpus.Stats
			res, err := c.TopKBatch(ctx, queries, p.k, corpus.WithoutTrees(), corpus.WithStats(&stats))
			if err != nil {
				t.Fatal(err)
			}
			e.Queries += len(queries)
			sumNumeric(e.Sums, reflect.ValueOf(stats))
			for _, ms := range res {
				for _, m := range ms {
					fmt.Fprintf(h, "%s %d %g %d;", m.Doc.Name, m.Pos, m.Dist, m.Size)
				}
				h.Write([]byte{'\n'})
			}
		}
		e.Answers = fmt.Sprintf("%x", h.Sum(nil))
		out[p.name] = e
	}
	return out
}

// BenchmarkLedgerPools times the work ledger's pools in process: the
// ledger's fixture, each pool's requests run one after another as
// TestWorkLedger runs them (no trees), on one corpus that keeps its
// candidate caches across pools and iterations. It reports the time and
// the view fills per query, so a change to the scan kernel can be timed
// against its parent without the serving benchmark:
//
//	go test -run='^$' -bench=LedgerPools -benchtime=5x ./corpus
func BenchmarkLedgerPools(b *testing.B) {
	ctx := context.Background()
	c, docs := ledgerCorpus(b)
	for _, p := range ledgerPools {
		pool := parseRequests(b, c, drawRequests(b, docs, p.qsize, p.batch, p.requests))
		b.Run(p.name, func(b *testing.B) {
			var fills uint64
			queries := 0
			for i := 0; i < b.N; i++ {
				for _, qs := range pool {
					var stats corpus.Stats
					if _, err := c.TopKBatch(ctx, qs, p.k, corpus.WithoutTrees(), corpus.WithStats(&stats)); err != nil {
						b.Fatal(err)
					}
					fills += stats.ViewFills
					queries += len(qs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(queries), "µs/query")
			b.ReportMetric(float64(fills)/float64(queries), "fills/query")
		})
	}
}

// drawRequests draws n distinct requests of batch distinct bracket
// queries each, the first of qsize nodes and the others one node larger
// apiece, from docs at seed 1, as the serving benchmark's pool does: a
// run of n draws yielding nothing new spreads the wanted size upwards by
// one node.
func drawRequests(t testing.TB, docs []*tree.Tree, qsize, batch, n int) [][]string {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var pool [][]string
	spread, misses := 0, 0
	for len(pool) < n {
		qs := make([]string, 0, batch)
		for len(qs) < batch {
			want := qsize + len(qs) + rng.Intn(spread+1)
			q, err := datagen.QueryFromDocument(docs[rng.Intn(len(docs))], rng, want)
			if err != nil {
				t.Fatal(err)
			}
			if s := q.String(); !slices.Contains(qs, s) {
				qs = append(qs, s)
			}
		}
		key := strings.Join(qs, "\x00")
		if seen[key] {
			if misses++; misses >= n {
				if spread++; spread > 4*qsize {
					t.Fatalf("fixture yields fewer than %d distinct requests", n)
				}
				misses = 0
			}
			continue
		}
		seen[key], misses = true, 0
		pool = append(pool, qs)
	}
	return pool
}

// sumNumeric adds every integer field of the struct v, embedded structs
// flattened, into sums under its JSON name.
func sumNumeric(sums map[string]uint64, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if f.Anonymous && fv.Kind() == reflect.Struct {
			sumNumeric(sums, fv)
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			sums[name] += uint64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			sums[name] += fv.Uint()
		}
	}
}

func unionKeys(a, b map[string]uint64) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
