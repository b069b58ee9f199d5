package main

// The traced run's HTTP half: the harness's own span recorder, the
// ?trace=1 pass that attaches the program's span block under each
// request's span, and the shard.Client hop measurement.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// tracedN is how many pool entries the ?trace=1 pass sends, serially and
// in pool order, so that every count it reports repeats exactly from run
// to run of one seed.
const tracedN = 256

// span is one recorded interval. Spans of one request share its request
// number; Parent is the span that caused this one (0: none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

// tracer keeps spans in memory until the run ends. The traced pass and
// the layer pass are serial, so it is used from one goroutine only.
type tracer struct {
	workload string
	start    time.Time
	spans    []span
	requests int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, start: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// newRequest returns a fresh request number.
func (t *tracer) newRequest() int {
	t.requests++
	return t.requests
}

// add records a finished span and returns its id.
func (t *tracer) add(parent, request int, name, detail string, startUs, endUs float64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, request, name, detail, startUs, endUs})
	return id
}

// timed runs fn inside a span around an in-process layer call and returns
// how long it took.
func (t *tracer) timed(parent, request int, name, detail string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, request, name, detail, t.us(start), t.us(end))
	return end.Sub(start)
}

// attach records the program's span block as children of parent. The
// block's clock is the daemon's: offsets are relative to its own start,
// which the client cannot know, so the block is centred in the parent
// interval [startUs, endUs]. Leaf blocks a router collected go under its
// shard spans, in order.
func (t *tracer) attach(parent, request int, w *qtrace.Wire, startUs, endUs float64) {
	if w == nil {
		return
	}
	base := startUs + (endUs-startUs-extentUs(w))/2
	var shardSpans []span
	for _, s := range w.Spans {
		id := t.add(parent, request, s.Name, s.Detail, base+s.StartUs, base+s.StartUs+s.DurUs)
		if s.Name == qtrace.SpanShard {
			shardSpans = append(shardSpans, span{ID: id, StartUs: base + s.StartUs, EndUs: base + s.StartUs + s.DurUs})
		}
	}
	for i, child := range w.Shards {
		if i < len(shardSpans) {
			t.attach(shardSpans[i].ID, request, child, shardSpans[i].StartUs, shardSpans[i].EndUs)
		} else {
			t.attach(parent, request, child, startUs, endUs)
		}
	}
}

// selfTimes returns, per span name, the total time not covered by child
// spans: a layer's self time is its span minus its children.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndUs - s.StartUs
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += max(s.EndUs-s.StartUs-children[s.ID], 0)
	}
	return self
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(root string) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"workload":   t.workload,
		"spans":      t.spans,
		"selfTimeUs": t.selfTimes(),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}

// extentUs is the length of a block: from its trace's start to the end of
// its last span.
func extentUs(w *qtrace.Wire) float64 {
	end := 0.0
	for _, s := range w.Spans {
		end = max(end, s.StartUs+s.DurUs)
	}
	return end
}

// sumSpans adds up the durations of the spans called name in a block and
// every block nested in it.
func sumSpans(w *qtrace.Wire, name string) float64 {
	total := 0.0
	for _, s := range w.Spans {
		if s.Name == name {
			total += s.DurUs
		}
	}
	for _, child := range w.Shards {
		total += sumSpans(child, name)
	}
	return total
}

// tracedPass sends the first tracedN pool entries with ?trace=1, one at a
// time, and derives the span-based per-layer metrics. Traced requests
// bypass tasmd's result cache, so every one of them runs the scan and its
// counters depend only on the seed.
func tracedPass(ctx context.Context, tgt *target, w *workload, serial []sample, tr *tracer, res *result) error {
	n := min(tracedN/w.batch, len(tgt.pool))
	var (
		latUs, parse, plan, scan, merge, legMax, fanout, gap []float64
		scanned, skipped, hist, aborted, evaluated, overlay  float64
		dropped                                              int
	)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		s, resp := tgt.send(int32(i), start, "?trace=1")
		end := start.Add(s.lat)
		res.Attempted++
		if !s.ok {
			res.Failed++
			res.fail("traced request %d failed or answered differently from the oracle", i)
			continue
		}
		if resp.Trace == nil {
			return fmt.Errorf("bench: response to ?trace=1 carries no trace block")
		}
		req := tr.newRequest()
		root := tr.add(0, req, "http "+w.name, "", tr.us(start), tr.us(end))
		tr.attach(root, req, resp.Trace, tr.us(start), tr.us(end))

		us := float64(s.lat) / float64(time.Microsecond)
		latUs = append(latUs, us)
		parse = append(parse, sumSpans(resp.Trace, qtrace.SpanParse))
		plan = append(plan, sumSpans(resp.Trace, qtrace.SpanPlan))
		scan = append(scan, sumSpans(resp.Trace, qtrace.SpanScan))
		merge = append(merge, sumSpans(resp.Trace, qtrace.SpanMerge))
		slowest := 0.0
		for _, sp := range resp.Trace.Spans {
			if sp.Name == qtrace.SpanShard {
				slowest = max(slowest, sp.DurUs)
			}
		}
		legMax = append(legMax, slowest)
		if slowest > 0 {
			fanout = append(fanout, extentUs(resp.Trace)-slowest)
		}
		gap = append(gap, us-extentUs(resp.Trace))
		if resp.Trace.Dropped > 0 {
			dropped++
		}
		scanned += float64(resp.Stats.Scanned)
		skipped += float64(resp.Stats.Skipped)
		hist += float64(resp.Stats.HistSkipped)
		aborted += float64(resp.Stats.TEDAborted)
		evaluated += float64(resp.Stats.Evaluated)
		overlay += float64(resp.Stats.OverlayLabels)
	}
	if len(latUs) == 0 {
		return fmt.Errorf("bench: no traced request succeeded")
	}
	res.set(perLayer, "tree.parse_us", medianOf(parse))
	res.set(perLayer, "corpus.plan_us", medianOf(plan))
	res.set(perLayer, "corpus.scan_us", medianOf(scan))
	res.set(perLayer, "corpus.merge_us", medianOf(merge))
	res.set(perLayer, "shard.leg_max_us", medianOf(legMax))
	res.set(perLayer, "shard.fanout_overhead_us", medianOf(fanout))
	res.set(perLayer, "tasmd.untraced_gap_us", medianOf(gap))
	queries := float64(len(latUs) * w.batch)
	res.set(perLayer, "corpus.docs_scanned_per_q", scanned/float64(len(latUs)))
	res.set(perLayer, "corpus.docs_skipped_per_q", skipped/float64(len(latUs)))
	res.set(perLayer, "prb.hist_skipped_per_q", hist/queries)
	res.set(perLayer, "ted.aborted_per_q", aborted/queries)
	res.set(perLayer, "ted.evaluated_per_q", evaluated/queries)
	useful := 1.0
	if evaluated+aborted > 0 {
		useful = evaluated / (evaluated + aborted)
	}
	res.set(perLayer, "core.useful_eval_ratio", useful)
	res.set(perLayer, "dict.overlay_labels_per_q", overlay/queries)
	res.samples["tree.parse_us"] = len(latUs)
	if dropped > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d of %d traced responses dropped spans (qtrace keeps 192): their span sums are short", dropped, len(latUs)))
	}

	// Tracing overhead: the same pool entries, traced against untraced and
	// uncached, both serial.
	untraced := latenciesMs(serial, func(s *sample) bool { return int(s.idx) < n && !s.cached })
	overhead := 0.0
	if len(untraced) > 0 {
		overhead = medianOf(latUs)/1000/median(untraced) - 1
	}
	res.set(perLayer, "qtrace.overhead_frac", overhead)
	res.samples["qtrace.overhead_frac"] = len(untraced)
	return nil
}

// hopN is how many pool entries the shard.Client hop is measured over.
const hopN = 64

// clientHop measures what shard.Client adds to a leaf request: the same
// pool entries are sent to one leaf directly and through a shard.Client,
// in alternating order, and the median of the per-entry differences is
// reported. The leaf's result cache is emptied first by bumping its
// generation, and the two paths use different cache keys (the client names
// every document explicitly, which selects the same scan), so neither is
// served the other's answer.
func clientHop(ctx context.Context, leafURL string, w *workload, pool []request, tr *tracer, res *result) error {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	if err := ingest(hc, leafURL, "zzflush", churnDoc); err != nil {
		return err
	}
	if err := remove(hc, leafURL, "zzflush"); err != nil {
		return err
	}
	cl, err := shard.NewClient(leafURL, shard.WithHTTPClient(hc))
	if err != nil {
		return err
	}
	infos, err := cl.DocsContext(ctx)
	if err != nil {
		return err
	}
	names := make([]string, len(infos))
	for i, d := range infos {
		names[i] = d.Name
	}
	var direct, hop []float64
	req := tr.newRequest()
	for i := 0; i < min(hopN, len(pool)); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		qs := make([]*tree.Tree, len(pool[i].queries))
		for j, s := range pool[i].queries {
			if qs[j], err = tree.Parse(dict.New(), s); err != nil {
				return err
			}
		}
		var perr error
		sendDirect := func() {
			var resp wireResponse
			d := tr.timed(0, req, "http direct", "", func() { _, perr = post(hc, leafURL+w.path(), pool[i].body, &resp) })
			direct = append(direct, float64(d)/float64(time.Microsecond))
		}
		sendHop := func() {
			d := tr.timed(0, req, "shard.Client", "", func() {
				if len(qs) > 1 {
					_, perr = cl.TopKBatch(ctx, qs, w.k, corpus.WithoutTrees(), corpus.WithDocs(names...))
				} else {
					_, perr = cl.TopK(ctx, qs[0], w.k, corpus.WithoutTrees(), corpus.WithDocs(names...))
				}
			})
			hop = append(hop, float64(d)/float64(time.Microsecond))
		}
		// Whichever goes second finds the query's data warm, so the order
		// alternates.
		order := []func(){sendDirect, sendHop}
		if i%2 == 1 {
			order = []func(){sendHop, sendDirect}
		}
		for _, send := range order {
			if send(); perr != nil {
				return perr
			}
		}
	}
	// Paired differences: each entry's own cost cancels, which varies far
	// more between entries than the hop does.
	diff := make([]float64, len(hop))
	for i := range hop {
		diff[i] = hop[i] - direct[i]
	}
	res.set(perLayer, "shard.client_hop_us", medianOf(diff))
	res.samples["shard.client_hop_us"] = len(diff)
	return nil
}
