package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// distinctStats fills every field of a corpus.Stats with a value no other
// field holds, offset by base: counters get numbers, name lists one name
// each. Cached is left false — only a serving layer's own cache sets it.
// A field of any other kind fails the test, so a new field cannot escape
// the wire and merge contracts below by its type. The fields of an
// embedded struct (the scan's work.Counts) count as Stats's own.
func distinctStats(t *testing.T, base int) corpus.Stats {
	t.Helper()
	var s corpus.Stats
	v := reflect.ValueOf(&s).Elem()
	for i, sf := range statsFields() {
		f := v.FieldByIndex(sf.Index)
		if tag := sf.Tag.Get("json"); tag == "" || tag == "-" {
			t.Fatalf("corpus.Stats.%s has no JSON name: it would not travel the wire", sf.Name)
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(base + i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(base + i + 1))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{sf.Name + strconv.Itoa(base)}))
		case reflect.Bool:
			if sf.Name != "Cached" {
				t.Fatalf("corpus.Stats.%s: a flag other than Cached needs its own wire and merge rule", sf.Name)
			}
		default:
			t.Fatalf("corpus.Stats.%s has kind %s, which this contract does not cover", sf.Name, f.Kind())
		}
	}
	return s
}

// statsFields lists corpus.Stats's fields, those of embedded structs in
// their place.
func statsFields() []reflect.StructField {
	var out []reflect.StructField
	for _, sf := range reflect.VisibleFields(reflect.TypeOf(corpus.Stats{})) {
		if !sf.Anonymous {
			out = append(out, sf)
		}
	}
	return out
}

// statsSearcher answers every query with empty rankings and fixed stats.
type statsSearcher struct{ stats corpus.Stats }

func (f *statsSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	rs, err := f.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

func (f *statsSearcher) TopKBatch(ctx context.Context, queries []*tree.Tree, _ int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg := corpus.ResolveQueryOptions(opts...); cfg.Stats != nil {
		*cfg.Stats = f.stats
	}
	return make([][]corpus.Match, len(queries)), nil
}

func (f *statsSearcher) Docs() []corpus.DocInfo { return nil }
func (f *statsSearcher) Generation() uint64     { return 1 }

// TestStatsRoundTrip: every corpus.Stats field a backend reports arrives
// unchanged at a shard.Client through tasmd's JSON, on both endpoints.
func TestStatsRoundTrip(t *testing.T) {
	want := distinctStats(t, 0)
	srv := httptest.NewServer(newServer(&statsSearcher{stats: want}, nil, serverConfig{}))
	defer srv.Close()
	cl, err := shard.NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := dict.New()
	var queries []*tree.Tree
	for _, s := range []string{"{a{b}}", "{c}"} {
		q, err := tree.Parse(d, s)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, n := range []int{1, 2} { // one query travels as /v1/topk, two as /v1/topk-batch
		var got corpus.Stats
		if _, err := cl.TopKBatch(context.Background(), queries[:n], 2, corpus.WithStats(&got)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d queries: stats after the round trip\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestStatsMerge: Merge sums every counter and concatenates every name
// list; Cached, each serving layer's own, is left as it was.
func TestStatsMerge(t *testing.T) {
	s, o := distinctStats(t, 0), distinctStats(t, 100)
	s.Cached = true
	m := s
	m.Merge(&o)
	sv, ov, mv := reflect.ValueOf(s), reflect.ValueOf(o), reflect.ValueOf(m)
	for _, field := range statsFields() {
		sf, of, mf := sv.FieldByIndex(field.Index), ov.FieldByIndex(field.Index), mv.FieldByIndex(field.Index)
		var ok bool
		switch sf.Kind() {
		case reflect.Int:
			ok = mf.Int() == sf.Int()+of.Int()
		case reflect.Uint64:
			ok = mf.Uint() == sf.Uint()+of.Uint()
		case reflect.Slice:
			cat := append(slices.Clone(sf.Interface().([]string)), of.Interface().([]string)...)
			ok = slices.Equal(mf.Interface().([]string), cat)
		case reflect.Bool:
			ok = mf.Bool() == sf.Bool()
		}
		if !ok {
			t.Errorf("Merge: %s = %v from %v and %v", field.Name, mf, sf, of)
		}
	}
}

// TestRouterCachedIsItsOwn: a router answer reports the router's cache,
// never its leaf's — a computed router answer the leaf served from its
// cache says "cached":false, a replay from the router's cache true — and
// a shard.Client's stats never report its remote's cache.
func TestRouterCachedIsItsOwn(t *testing.T) {
	leaf, _ := newTestServer(t, serverConfig{cacheSize: 8})
	ingest(t, leaf, "d", `<r><a><b>x</b></a><a><c>y</c></a></r>`)
	srv := httptest.NewServer(leaf)
	defer srv.Close()
	cl, err := shard.NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The router's cache keys on the leaf generation the client has seen:
	// learn it first, so no refresh lands between two router requests.
	if _, err := cl.DocsContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	router := newServer(shard.NewGroup(cl), nil, serverConfig{cacheSize: 8})
	cached := func(h http.Handler, path, body string) bool {
		t.Helper()
		w := doJSON(t, h, "POST", path, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
		var resp struct{ Stats corpus.Stats }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Stats.Cached
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/topk", `{"query":"{a{b}}","k":2}`},
		{"/v1/topk-batch", `{"queries":["{a{b}}","{a{c}}"],"k":2}`},
	} {
		if cached(leaf, c.path, c.body) {
			t.Fatalf("%s: first leaf answer cached", c.path)
		}
		if !cached(leaf, c.path, c.body) {
			t.Fatalf("%s: the leaf did not cache its answer", c.path)
		}
		if cached(router, c.path, c.body) {
			t.Errorf("%s: the leaf's cache hit surfaced as the router's", c.path)
		}
		if !cached(router, c.path, c.body) {
			t.Errorf("%s: the router's own cache hit is not reported", c.path)
		}
	}
	hits := func() string {
		return metricLine(doJSON(t, leaf, "GET", "/metrics", nil).Body.String(), "tasmd_topk_cache_hits_total")
	}
	q, err := tree.Parse(dict.New(), "{a{b}}")
	if err != nil {
		t.Fatal(err)
	}
	before := hits()
	var st corpus.Stats
	if _, err := cl.TopK(context.Background(), q, 2, corpus.WithoutTrees(), corpus.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if hits() == before {
		t.Fatal("the client's query missed the leaf's cache")
	}
	if st.Cached {
		t.Error("shard.Client reported its remote's cache hit as its own")
	}
}
