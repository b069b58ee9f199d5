package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"tasm/corpus/shard"
	"tasm/internal/prb"
	"tasm/internal/qtrace"
	"tasm/internal/work"
)

// TestWorkCountsContract: every work.Counts counter is one declaration
// that every surface carries. On both query endpoints, the counters summed
// over a traced response's scan spans equal its stats; /metrics exports
// each counter under its tags, summed over every computed request;
// README's counter table names it.
// The fixture is the benchmark's XMark leaf corpus with queries at one τ
// more than a document's candidate cache has slots, so that every
// counter, candidate-set misses included, fires.
func TestWorkCountsContract(t *testing.T) {
	c, docs := allocFixture(t)
	fields := reflect.VisibleFields(reflect.TypeOf(work.Counts{}))
	// τ = 2|Q| + k: 21, 27 (the batch's largest query has 11 nodes) and
	// 66, then single queries at further k until the last τ finds every
	// slot taken.
	shapes := []struct{ qsize, k, batch int }{{8, 5, 1}, {8, 5, 4}, {8, 50, 1}}
	for k := 6; len(shapes) <= prb.CandidateSlots; k++ {
		if 2*8+k != 27 {
			shapes = append(shapes, struct{ qsize, k, batch int }{8, k, 1})
		}
	}
	h := newServer(c, c, serverConfig{})
	var total work.Counts
	for _, shape := range shapes {
		path, bodies := queryBodies(t, docs, 3, shape.qsize, shape.k, shape.batch)
		for _, body := range bodies {
			what := fmt.Sprintf("%s, %s", path, body)
			w := doJSON(t, h, "POST", path+"?trace=1", string(body))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", what, w.Code, w.Body)
			}
			var resp shard.BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Trace == nil || resp.Trace.Dropped != 0 {
				t.Fatalf("%s: no whole trace block", what)
			}
			var spans work.Counts
			for _, s := range resp.Trace.Spans {
				if s.Name == qtrace.SpanScan {
					if s.Prune == nil {
						t.Fatalf("%s: scan span of %s carries no work counts", what, s.Detail)
					}
					spans.Add(*s.Prune)
				}
			}
			if spans != resp.Stats.Counts {
				t.Errorf("%s: scan spans sum to %+v, stats say %+v", what, spans, resp.Stats.Counts)
			}
			total.Add(resp.Stats.Counts)
		}
	}
	body, _ := scrapeMetrics(t, h)
	checkWorkRows(t, body, fields, total)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	tv := reflect.ValueOf(total)
	for _, f := range fields {
		if tv.FieldByIndex(f.Index).Uint() == 0 {
			t.Errorf("%s never fired: the sums above prove nothing about it", f.Name)
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		row := "| `" + f.Name + "` | `" + key + "` | `" + f.Tag.Get("metric") + "` |"
		if !strings.Contains(string(readme), row) {
			t.Errorf("README's counter table has no row starting %s", row)
		}
	}
}

// checkWorkRows checks that the exposition carries every counter with its
// help text, its type and the value want holds.
func checkWorkRows(t *testing.T, body string, fields []reflect.StructField, want work.Counts) {
	t.Helper()
	v := reflect.ValueOf(want)
	for _, f := range fields {
		name := f.Tag.Get("metric")
		for _, line := range []string{
			"# HELP " + name + " " + f.Tag.Get("help") + "\n",
			"# TYPE " + name + " counter\n",
			fmt.Sprintf("%s %d\n", name, v.FieldByIndex(f.Index).Uint()),
		} {
			if !strings.Contains(body, line) {
				t.Errorf("/metrics has no line %q", strings.TrimSpace(line))
			}
		}
	}
}
