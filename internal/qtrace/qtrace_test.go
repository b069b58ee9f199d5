package qtrace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"tasm/internal/work"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	h := tr.Begin(SpanPlan, "")
	if h != -1 {
		t.Fatalf("nil Begin returned %d, want -1", h)
	}
	tr.End(h)
	tr.SetPrune(h, work.Counts{HistSkipped: 1, TEDAborted: 2, Evaluated: 3})
	tr.AddChild(&Wire{})
	tr.SetPropagate(true)
	if tr.Propagate() {
		t.Error("nil trace propagates")
	}
	if w := tr.Export(); w != nil {
		t.Errorf("nil Export = %+v, want nil", w)
	}
	if got := tr.Traceparent(); got != "" {
		t.Errorf("nil Traceparent = %q, want empty", got)
	}
	if _, _, ok := tr.Active(); ok {
		t.Error("nil Active reported an open span")
	}
	Release(tr)
}

func TestSpanLifecycle(t *testing.T) {
	tr := New()
	defer Release(tr)
	p := tr.Begin(SpanPlan, "")
	tr.End(p)
	s := tr.Begin(SpanScan, "doc0")
	if name, detail, ok := tr.Active(); !ok || name != SpanScan || detail != "doc0" {
		t.Errorf("Active = (%q, %q, %v), want (scan, doc0, true)", name, detail, ok)
	}
	want := work.Counts{HistSkipped: 10, TEDAborted: 2, TEDGated: 1, Evaluated: 7, TEDMemoHits: 3}
	tr.SetPrune(s, want)
	tr.End(s)
	if _, _, ok := tr.Active(); ok {
		t.Error("Active reported an open span after all spans ended")
	}
	w := tr.Export()
	if len(w.Spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(w.Spans))
	}
	if w.Spans[0].Name != SpanPlan || w.Spans[1].Name != SpanScan {
		t.Errorf("span names = %q, %q", w.Spans[0].Name, w.Spans[1].Name)
	}
	if w.Spans[1].Prune == nil || *w.Spans[1].Prune != want {
		t.Errorf("scan span prune = %+v, want %+v", w.Spans[1].Prune, want)
	}
	if w.Spans[0].Prune != nil {
		t.Error("plan span has prune counters it was never given")
	}
	if len(w.TraceID) != 32 || len(w.SpanID) != 16 {
		t.Errorf("id lengths: trace %d span %d, want 32 and 16", len(w.TraceID), len(w.SpanID))
	}
}

func TestSlabCapacityDropsNotGrows(t *testing.T) {
	tr := New()
	defer Release(tr)
	for i := 0; i < spanCap+25; i++ {
		h := tr.Begin(SpanScan, "d")
		tr.End(h)
	}
	w := tr.Export()
	if len(w.Spans) != spanCap {
		t.Errorf("kept %d spans, want the slab capacity %d", len(w.Spans), spanCap)
	}
	if w.Dropped != 25 {
		t.Errorf("dropped = %d, want 25", w.Dropped)
	}
}

func TestPoolReuseResets(t *testing.T) {
	tr := New()
	tr.Begin(SpanPlan, "stale")
	tr.AddChild(&Wire{TraceID: "stale"})
	id := tr.TraceID()
	Release(tr)
	tr2 := New()
	defer Release(tr2)
	w := tr2.Export()
	if len(w.Spans) != 0 || len(w.Shards) != 0 || w.Dropped != 0 {
		t.Errorf("reused trace carries state: %+v", w)
	}
	if tr2.TraceID() == id && id != (TraceID{}) {
		// Not impossible, but with 128-bit random ids a collision means
		// the id was not regenerated.
		t.Error("reused trace kept the released trace's id")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New()
	defer Release(tr)
	hdr := tr.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q not in 00-…-01 form", hdr)
	}
	tid, sid, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", hdr)
	}
	if tid != tr.TraceID() || sid != tr.SpanID() {
		t.Errorf("round trip: got (%s, %s), want (%s, %s)", tid, sid, tr.TraceID(), tr.SpanID())
	}

	child := NewWithParent(tid, sid)
	defer Release(child)
	if child.TraceID() != tr.TraceID() {
		t.Error("child did not keep the parent's trace id")
	}
	cw := child.Export()
	if cw.ParentID != tr.SpanID().String() {
		t.Errorf("child ParentID = %q, want parent span %s", cw.ParentID, tr.SpanID())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-zz-xx-01",
		"00-0123456789abcdef-0123456789abcdef-01",                                  // short trace id
		"00-00000000000000000000000000000000-0123456789abcdef-01",                  // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",                  // zero span id
		"00-0123456789abcdef0123456789abcdeg-0123456789abcdef-01",                  // non-hex
		"0-0123456789abcdef0123456789abcdef-0123456789abcdef-01",                   // short version
		"00_0123456789abcdef0123456789abcdef_0123456789abcdef_01",                  // wrong separators
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",                     // missing flags
		"00-0123456789abcdef0123456789abcdef00-0123456789abcdef-01ff-extra-fields", // long trace id
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	if _, _, ok := ParseTraceparent("cc-0123456789abcdef0123456789abcdef-0123456789abcdef-01-futurefield"); !ok {
		t.Error("future traceparent version with extra fields rejected; spec says parse it")
	}
}

func TestContextCarry(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context carries a trace")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx tolerance is the contract
		t.Error("nil context carries a trace")
	}
	tr := New()
	defer Release(tr)
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("context did not return the attached trace")
	}
	if got := NewContext(ctx, nil); FromContext(got) != tr {
		t.Error("attaching nil replaced the existing trace")
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New()
	defer Release(tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := tr.Begin(SpanShard, "s")
				tr.SetPrune(h, work.Counts{HistSkipped: 1, TEDAborted: 1, Evaluated: 1})
				tr.End(h)
			}
		}()
	}
	wg.Wait()
	w := tr.Export()
	if len(w.Spans)+w.Dropped != 400 {
		t.Errorf("kept %d + dropped %d spans, want 400 total", len(w.Spans), w.Dropped)
	}
}

func TestExportOpenSpanDuration(t *testing.T) {
	tr := New()
	defer Release(tr)
	h := tr.Begin(SpanScan, "doc")
	time.Sleep(2 * time.Millisecond)
	w := tr.Export()
	if w.Spans[0].DurUs < 1000 {
		t.Errorf("open span exported with %vµs, want ≥ ~2000 (duration so far)", w.Spans[0].DurUs)
	}
	tr.End(h)
}

func TestWireJSONShape(t *testing.T) {
	tr := New()
	defer Release(tr)
	h := tr.Begin(SpanScan, "doc0")
	tr.SetPrune(h, work.Counts{HistSkipped: 1, TEDAborted: 2, Evaluated: 3})
	tr.End(h)
	tr.AddChild(&Wire{TraceID: tr.TraceID().String(), SpanID: "aaaaaaaaaaaaaaaa", ParentID: tr.SpanID().String()})
	data, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	var decoded Wire
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.TraceID != tr.TraceID().String() || len(decoded.Spans) != 1 ||
		len(decoded.Shards) != 1 || decoded.Shards[0].ParentID != tr.SpanID().String() {
		t.Errorf("JSON round trip lost structure: %s", data)
	}
}

// TestRetainDefersPoolReturn pins the hedged-loser contract: a trace
// retained by an in-flight replica attempt must not return to the pool
// (and must keep accepting span writes) when the request releases it;
// only the final Release recycles the slab.
func TestRetainDefersPoolReturn(t *testing.T) {
	tr := New()
	h := tr.Begin(SpanShard, "replica-0")
	tr.Retain() // the attempt goroutine
	Release(tr) // the request's response was written
	tr.End(h)   // the losing attempt's late span write
	tr.AddChild(&Wire{TraceID: "late"})
	if w := tr.Export(); len(w.Spans) != 1 || len(w.Shards) != 1 {
		t.Fatalf("retained trace lost state after request Release: %+v", w)
	}
	Release(tr) // the attempt unwinds; now the slab recycles
	tr2 := New()
	defer Release(tr2)
	if w := tr2.Export(); len(w.Spans) != 0 || len(w.Shards) != 0 {
		t.Errorf("reused trace carries retained-phase state: %+v", w)
	}
}

// TestEndPastSlabIsNoOp pins the hardening: ending a handle beyond the
// current slab (a recorder that outlived its Retain) must be ignored,
// not crash.
func TestEndPastSlabIsNoOp(t *testing.T) {
	tr := New()
	defer Release(tr)
	tr.End(somethingStale)
	tr.SetPrune(somethingStale, work.Counts{HistSkipped: 1, TEDAborted: 2, Evaluated: 3})
	if w := tr.Export(); len(w.Spans) != 0 {
		t.Errorf("stale End materialized a span: %+v", w)
	}
}

const somethingStale = 17
