package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tasm/corpus/shard"
)

// expoFamily tracks one metric family while validating an exposition.
type expoFamily struct {
	kind     string
	hasHelp  bool
	hasType  bool
	samples  int
	declared int // line index of the TYPE line, to enforce header-first
}

// expoHist tracks one histogram series (one label set minus le) while
// validating: bucket cumulativity, +Inf presence, _count agreement.
type expoHist struct {
	lastLe    float64
	lastCum   float64
	buckets   int
	infSeen   bool
	infValue  float64
	count     float64
	countSeen bool
	sumSeen   bool
}

// validateExposition is a strict hand-rolled parser for the Prometheus
// text exposition format (version 0.0.4) covering exactly what tasmd
// emits: every sample's family must have HELP and TYPE lines before its
// first sample, values must parse, counters must be non-negative, and
// every histogram series must have strictly increasing le boundaries,
// non-decreasing cumulative buckets, a +Inf bucket, and _count equal to
// the +Inf cumulative value (the scrape-tear regression this test
// guards: _count used to be a separate counter that could disagree).
func validateExposition(t *testing.T, text string) map[string]*expoFamily {
	t.Helper()
	families := map[string]*expoFamily{}
	hists := map[string]*expoHist{}
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || strings.TrimSpace(parts[1]) == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &expoFamily{}
				families[parts[0]] = f
			}
			if f.samples > 0 {
				t.Fatalf("line %d: HELP for %s after its samples", ln+1, parts[0])
			}
			f.hasHelp = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := parts[0], parts[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln+1, kind)
			}
			f := families[name]
			if f == nil {
				f = &expoFamily{}
				families[name] = f
			}
			if f.samples > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, name)
			}
			f.kind, f.hasType = kind, true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			name, labels, value := parseSampleLine(t, ln+1, line)
			fam, famName := sampleFamily(families, name)
			if fam == nil {
				t.Fatalf("line %d: sample %s without a declared family", ln+1, name)
			}
			if !fam.hasHelp || !fam.hasType {
				t.Fatalf("line %d: family %s missing HELP or TYPE before samples", ln+1, famName)
			}
			fam.samples++
			if fam.kind == "counter" && value < 0 {
				t.Fatalf("line %d: counter %s is negative: %g", ln+1, name, value)
			}
			if fam.kind == "histogram" {
				validateHistSample(t, ln+1, hists, famName, name, labels, value)
			} else if _, ok := labels["le"]; ok {
				t.Fatalf("line %d: non-histogram sample %s has an le label", ln+1, name)
			}
		}
	}
	for key, h := range hists {
		if !h.infSeen {
			t.Errorf("histogram series %s has no +Inf bucket", key)
		}
		if !h.countSeen || !h.sumSeen {
			t.Errorf("histogram series %s missing _count or _sum", key)
		}
		if h.countSeen && h.infSeen && h.count != h.infValue {
			t.Errorf("histogram series %s: _count %g != +Inf bucket %g", key, h.count, h.infValue)
		}
	}
	for name, f := range families {
		if f.samples == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
	}
	return families
}

// sampleFamily resolves a sample name to its family: histogram samples
// use the base name with the _bucket/_sum/_count suffix stripped.
func sampleFamily(families map[string]*expoFamily, name string) (*expoFamily, string) {
	if f, ok := families[name]; ok {
		return f, name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if f, ok := families[base]; ok && f.kind == "histogram" {
			return f, base
		}
	}
	return nil, name
}

// validateHistSample folds one histogram sample into its series state.
func validateHistSample(t *testing.T, ln int, hists map[string]*expoHist, famName, name string, labels map[string]string, value float64) {
	t.Helper()
	// The series key is the label set without le, order-normalized by the
	// sorted rebuild below (tasmd only ever emits the shard label).
	key := famName
	if s, ok := labels["shard"]; ok {
		key += "|shard=" + s
	}
	h := hists[key]
	if h == nil {
		h = &expoHist{lastLe: -1}
		hists[key] = h
	}
	switch {
	case strings.HasSuffix(name, "_bucket"):
		le, ok := labels["le"]
		if !ok {
			t.Fatalf("line %d: bucket sample without le label", ln)
		}
		if le == "+Inf" {
			h.infSeen, h.infValue = true, value
			return
		}
		if h.infSeen {
			t.Fatalf("line %d: finite bucket after +Inf in series %s", ln, key)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable le %q", ln, le)
		}
		if bound <= h.lastLe && h.buckets > 0 {
			t.Fatalf("line %d: le %g not increasing in series %s", ln, bound, key)
		}
		if value < h.lastCum {
			t.Fatalf("line %d: bucket %g not cumulative in series %s (%g < %g)", ln, bound, key, value, h.lastCum)
		}
		h.lastLe, h.lastCum, h.buckets = bound, value, h.buckets+1
	case strings.HasSuffix(name, "_sum"):
		h.sumSeen = true
		if value < 0 {
			t.Fatalf("line %d: negative histogram sum in %s", ln, key)
		}
	case strings.HasSuffix(name, "_count"):
		h.countSeen, h.count = true, value
	default:
		t.Fatalf("line %d: sample %s under histogram family %s has no histogram suffix", ln, name, famName)
	}
	if h.infSeen && h.infValue < h.lastCum {
		t.Fatalf("+Inf bucket below last finite bucket in series %s", key)
	}
}

// parseSampleLine splits `name{labels} value` with a small state machine
// honoring the format's label value escapes (\\, \", \n).
func parseSampleLine(t *testing.T, ln int, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	labels = map[string]string{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: malformed sample %q", ln, line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed labels in %q", ln, line)
			}
			k := rest[:eq]
			rest = rest[eq+2:]
			var sb strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						sb.WriteByte('\\')
					case '"':
						sb.WriteByte('"')
					case 'n':
						sb.WriteByte('\n')
					default:
						t.Fatalf("line %d: unknown escape \\%c", ln, rest[1])
					}
					rest = rest[2:]
					continue
				}
				sb.WriteByte(c)
				rest = rest[1:]
			}
			labels[k] = sb.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = rest[1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	if strings.ContainsAny(rest, " ") {
		t.Fatalf("line %d: trailing content after value in %q", ln, line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: unparseable value %q: %v", ln, rest, err)
	}
	return name, labels, v
}

// scrapeMetrics fetches /metrics off the handler and validates the whole
// exposition strictly, returning the families for presence assertions.
func scrapeMetrics(t *testing.T, h http.Handler) (string, map[string]*expoFamily) {
	t.Helper()
	w := doJSON(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	body := w.Body.String()
	return body, validateExposition(t, body)
}

// TestMetricsExpositionLeaf validates every line a busy leaf emits.
func TestMetricsExpositionLeaf(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{cacheSize: 8, slowQuery: 1})
	ingest(t, h, "d1", `<r><a><b>x</b></a><a><c>y</c></a></r>`)
	ingest(t, h, "d2", `<r><a><b>z</b></a></r>`)
	topk(t, h, shard.Request{Query: "{a{b}}", K: 2})
	topk(t, h, shard.Request{Query: "{a{b}}", K: 2}) // cache hit path
	doJSON(t, h, "POST", "/v1/topk-batch", shard.Request{Queries: []string{"{a{b}}", "{a{c}}"}, K: 1})

	body, families := scrapeMetrics(t, h)
	for _, want := range []string{
		"tasmd_topk_requests_total",
		"tasmd_topk_cache_hits_total",
		"tasmd_topk_latency_seconds",
		"tasmd_topk_batch_latency_seconds",
		"tasmd_slow_queries_total",
		"tasmd_traced_queries_total",
		"tasmd_inflight_queries",
		"tasmd_dict_base_labels",
		"tasmd_corpus_column_bytes",
		"tasmd_goroutines",
		"tasmd_gomaxprocs",
		"tasmd_heap_bytes",
		"tasmd_gc_pause_seconds_total",
		"tasmd_process_start_time_seconds",
	} {
		if families[want] == nil {
			t.Errorf("metric family %s missing from leaf exposition", want)
		}
	}
	// The two computed queries (one topk, one batch; the repeat was a
	// cache hit) must be visible in the histogram counts.
	if !strings.Contains(body, "tasmd_topk_latency_seconds_count 2") {
		t.Errorf("expected 2 observed topk requests, exposition:\n%s", body)
	}
	// Both documents decoded at ingest: 7 + 4 nodes at 12 bytes each
	// (label, size, posting), 6 + 4 distinct labels at 8, 4 per document:
	// 220. Both scanned at τ = 5 ({a{b}}, k = 2) and τ = 4 (the batch,
	// k = 1), each τ caching a candidate set per document: 4 bytes per
	// candidate, 1 per node, 4 per block of 64 nodes — d1's two records,
	// d2 whole: 2 × ((8 + 7 + 4) + (4 + 4 + 4)).
	if !strings.Contains(body, "tasmd_corpus_column_bytes 282\n") {
		t.Errorf("expected 220 column bytes for 11 nodes and 10 labels and 62 for two candidate sets per document, exposition:\n%s", body)
	}
}

// TestMetricsExpositionRouter validates a router's exposition, including
// the shard-labelled series of its instrumented shard clients.
func TestMetricsExpositionRouter(t *testing.T) {
	cl0, _ := newLeaf(t, map[string]string{"a1": `<r><a><b>x</b></a></r>`})
	cl1, _ := newLeaf(t, map[string]string{"b1": `<r><a><c>y</c></a></r>`})
	sts := []*shardStats{{name: cl0.Name()}, {name: cl1.Name()}}
	group := shard.NewGroup(
		&instrumentedShard{Client: cl0, st: sts[0]},
		&instrumentedShard{Client: cl1, st: sts[1]},
	)
	router := newServer(group, nil, serverConfig{shards: sts})
	topk(t, router, shard.Request{Query: "{a{b}}", K: 2})

	body, families := scrapeMetrics(t, router)
	for _, want := range []string{
		"tasmd_shard_requests_total",
		"tasmd_shard_errors_total",
		"tasmd_shard_inflight_requests",
		"tasmd_shard_latency_seconds",
	} {
		if families[want] == nil {
			t.Errorf("metric family %s missing from router exposition", want)
		}
	}
	// One query fanned out to both shards: each shard's labelled series
	// must show it.
	for _, st := range sts {
		if !strings.Contains(body, "tasmd_shard_requests_total{shard=\""+st.name+"\"} 1") {
			t.Errorf("per-shard request count for %s missing, exposition:\n%s", st.name, body)
		}
	}
	if families["tasmd_dict_base_labels"] != nil {
		t.Errorf("router must not export the leaf-only base dictionary gauge")
	}
	if families["tasmd_corpus_column_bytes"] != nil {
		t.Errorf("router must not export the leaf-only column-bytes gauge")
	}
}

// TestMetricsOpenDuration covers the cold-start gauge: set only when the
// server was built over a locally opened corpus.
func TestMetricsOpenDuration(t *testing.T) {
	h, _ := newTestServer(t, serverConfig{openDuration: 42 * time.Millisecond})
	body, families := scrapeMetrics(t, h)
	if families["tasmd_corpus_open_seconds"] == nil {
		t.Fatalf("tasmd_corpus_open_seconds missing, exposition:\n%s", body)
	}
	if !strings.Contains(body, "tasmd_corpus_open_seconds 0.042") {
		t.Errorf("open-duration gauge value wrong, exposition:\n%s", body)
	}
}
