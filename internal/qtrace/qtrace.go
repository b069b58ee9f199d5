// Package qtrace is the query-tracing layer threaded through every tier
// of the system: an allocation-conscious span recorder carried via
// context.Context from the tasmd HTTP handler through corpus scans and
// shard fan-outs.
//
// A Trace holds a fixed-capacity slab of spans and is pooled per request
// (New/Release), so steady-state tracing performs no allocation beyond
// the pool's amortized churn. Spans are recorded at request, plan,
// per-document and merge granularity — NEVER per candidate — so the
// zero-allocations-per-candidate invariant of the scan hot path is
// untouched: the ring-buffer loop does not know tracing exists.
//
// Traces stitch across process boundaries with a W3C-style traceparent
// header ("00-<trace-id>-<span-id>-01"): a router's shard.Client
// propagates its trace id to the tasmd leaves, each leaf answers with
// its own trace block naming that trace id and the router's span id as
// parent, and the router attaches the leaf blocks as children — one
// request, one tree of spans across every tier.
//
// All methods are nil-receiver-safe: code records spans unconditionally
// and an untraced request (nil *Trace in the context) costs one nil
// check per span site.
package qtrace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasm/internal/work"
)

// TraceID identifies one end-to-end request across every tier (16 bytes,
// hex-encoded on the wire, exactly as in W3C trace context).
type TraceID [16]byte

// SpanID identifies one trace's root span (8 bytes, hex-encoded).
type SpanID [8]byte

// String returns the id in lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the id in lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is all zero (invalid per W3C).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is all zero (invalid per W3C).
func (id SpanID) IsZero() bool { return id == SpanID{} }

// spanCap is the fixed span slab capacity. Spans beyond it are dropped
// and counted, never allocated: a query over thousands of documents
// keeps its first spanCap spans and reports how many were dropped.
const spanCap = 192

// Span is one recorded stage of a trace: a name (a small fixed
// vocabulary — "parse", "plan", "scan", "shard", "merge"), an optional
// detail (the document or shard the stage worked on; always a string
// that already existed, never concatenated), offsets from the trace
// start, and optionally the scan work the stage did.
type Span struct {
	Name   string
	Detail string
	Start  time.Duration // offset from the trace start
	Dur    time.Duration // valid once done
	done   bool

	// Work is the scan work of this span, set (prune) for per-document
	// scan spans.
	prune bool
	Work  work.Counts
}

// Trace records the spans of one request. It is safe for concurrent use:
// a scatter-gather fan-out's goroutines record their per-shard spans
// into the same trace. Obtain one from New/NewWithParent and return it
// to the pool with Release when the request's response has been written.
type Trace struct {
	traceID TraceID
	spanID  SpanID // this trace's root span id (sent downstream as parent)
	parent  SpanID // the upstream root span id, zero at the root tier
	start   time.Time

	// propagate marks the trace for cross-process export: a shard.Client
	// only asks remote leaves for their trace blocks (and a server only
	// includes the block in its response) when set. Local span recording
	// happens either way, so /debug/queries and the slow-query log see
	// stages of every request.
	propagate bool

	mu       sync.Mutex
	spans    []Span // len ≤ spanCap; the backing array is the pooled slab
	dropped  int
	children []*Wire // trace blocks returned by downstream shards

	// refs counts the holders that may still record into this trace: the
	// request that created it plus every hedged replica attempt still in
	// flight (a ReplicaSet's losing attempts outlive the response).
	// Release only returns the trace to the pool when the last holder is
	// gone, so a late End/AddChild from a cancelled loser writes into a
	// still-live trace instead of a recycled slab.
	refs atomic.Int32
}

var pool = sync.Pool{New: func() any {
	return &Trace{spans: make([]Span, 0, spanCap)}
}}

// New returns a pooled trace with a fresh random trace id, started now.
func New() *Trace {
	return NewWithParent(randomTraceID(), SpanID{})
}

// NewWithParent returns a pooled trace continuing the given trace id,
// with parent as the upstream span (both typically parsed from an
// incoming traceparent header). A zero id gets a fresh random one.
func NewWithParent(id TraceID, parent SpanID) *Trace {
	t := pool.Get().(*Trace)
	if id.IsZero() {
		id = randomTraceID()
	}
	t.traceID = id
	t.parent = parent
	t.spanID = randomSpanID()
	t.start = time.Now()
	t.propagate = false
	t.spans = t.spans[:0]
	t.dropped = 0
	t.children = nil
	t.refs.Store(1)
	return t
}

// Retain adds a holder: the trace will not be recycled until a matching
// Release. A hedged replica attempt retains the trace before launching
// so its span recording stays valid even when the attempt loses the race
// and unwinds after the request's response has been written. Safe on nil.
func (t *Trace) Retain() {
	if t == nil {
		return
	}
	t.refs.Add(1)
}

// Release drops one holder; the last Release returns the trace to the
// pool. The creating request holds one reference (from New/NewWithParent)
// and drops it when the response has been written; concurrent recorders
// that may outlive the response (hedged replica attempts) bracket their
// work with Retain/Release. Safe on nil.
func Release(t *Trace) {
	if t == nil {
		return
	}
	if t.refs.Add(-1) > 0 {
		return
	}
	// Drop the strings the slab still references so released traces do
	// not pin request data; the slab itself is reused.
	s := t.spans[:cap(t.spans)]
	for i := range s {
		s[i] = Span{}
	}
	t.spans = t.spans[:0]
	t.children = nil
	pool.Put(t)
}

func randomTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func randomSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// TraceID returns the trace's id (zero on nil).
func (t *Trace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// SpanID returns the trace's root span id (zero on nil).
func (t *Trace) SpanID() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.spanID
}

// Elapsed returns the time since the trace started (zero on nil).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// SetPropagate marks the trace for cross-process export; see the field.
func (t *Trace) SetPropagate(on bool) {
	if t != nil {
		t.propagate = on
	}
}

// Propagate reports whether downstream tiers should export their trace
// blocks back to this trace (false on nil).
func (t *Trace) Propagate() bool { return t != nil && t.propagate }

// Begin opens a span and returns its handle, or -1 when the trace is nil
// or the slab is full (the span is then counted as dropped and every
// later operation on the handle is a no-op).
//
//tasm:hotpath
func (t *Trace) Begin(name, detail string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	if n == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = t.spans[:n+1] // within the fixed slab's capacity
	t.spans[n] = Span{Name: name, Detail: detail, Start: time.Since(t.start)}
	return n
}

// End closes the span. A handle past the current slab (possible only if
// a recorder outlived its Retain) is ignored rather than crashing.
//
//tasm:hotpath
func (t *Trace) End(h int) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h >= len(t.spans) {
		return
	}
	s := &t.spans[h]
	s.Dur = time.Since(t.start) - s.Start
	s.done = true
}

// SetPrune attaches a scan's work counts to the span.
//
//tasm:hotpath
func (t *Trace) SetPrune(h int, c work.Counts) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h >= len(t.spans) {
		return
	}
	s := &t.spans[h]
	s.prune, s.Work = true, c
}

// Active returns the most recently begun span that has not ended — the
// stage a still-running request is currently in, for in-flight query
// dashboards. ok is false when no span is open (or the trace is nil).
func (t *Trace) Active() (name, detail string, ok bool) {
	if t == nil {
		return "", "", false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if !t.spans[i].done {
			return t.spans[i].Name, t.spans[i].Detail, true
		}
	}
	return "", "", false
}

// AddChild attaches a downstream tier's exported trace block (e.g. the
// block a tasmd leaf returned to the router's shard.Client).
func (t *Trace) AddChild(w *Wire) {
	if t == nil || w == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.children = append(t.children, w)
}

// Wire is the JSON form of a trace — the "trace" block of a tasmd
// response. Shards holds the blocks downstream tiers returned; in a
// stitched router↔leaf trace every shard block names the same TraceID
// and the router's SpanID as its ParentID.
type Wire struct {
	TraceID  string     `json:"traceId"`
	SpanID   string     `json:"spanId"`
	ParentID string     `json:"parentId,omitempty"`
	Spans    []WireSpan `json:"spans"`
	Dropped  int        `json:"dropped,omitempty"`
	Shards   []*Wire    `json:"shards,omitempty"`
}

// WireSpan is one span of a trace block. Times are microseconds relative
// to the owning trace's start. Prune is a scan span's work, in the keys
// of a response's stats.
type WireSpan struct {
	Name    string       `json:"name"`
	Detail  string       `json:"detail,omitempty"`
	StartUs float64      `json:"startUs"`
	DurUs   float64      `json:"durUs"`
	Prune   *work.Counts `json:"prune,omitempty"`
}

// Export snapshots the trace as its wire form (nil on nil). Spans still
// open are exported with their duration so far.
func (t *Trace) Export() *Wire {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &Wire{
		TraceID: t.traceID.String(),
		SpanID:  t.spanID.String(),
		Dropped: t.dropped,
		Spans:   make([]WireSpan, len(t.spans)),
	}
	if !t.parent.IsZero() {
		w.ParentID = t.parent.String()
	}
	now := time.Since(t.start)
	for i, s := range t.spans {
		dur := s.Dur
		if !s.done {
			dur = now - s.Start
		}
		ws := WireSpan{
			Name:    s.Name,
			Detail:  s.Detail,
			StartUs: float64(s.Start.Nanoseconds()) / 1e3,
			DurUs:   float64(dur.Nanoseconds()) / 1e3,
		}
		if s.prune {
			c := s.Work
			ws.Prune = &c
		}
		w.Spans[i] = ws
	}
	w.Shards = append([]*Wire(nil), t.children...)
	return w
}

// Traceparent returns the trace's W3C traceparent header value
// ("00-<trace-id>-<root-span-id>-01"), empty on nil.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return "00-" + t.traceID.String() + "-" + t.spanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte (per spec, unknown versions are parsed as version 00) and
// rejects malformed or all-zero ids.
func ParseTraceparent(s string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	parts := strings.Split(s, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(parts[1])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(sid[:], []byte(parts[2])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace (ctx unchanged when t is
// nil).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, nil when there is none
// (recording into the nil trace is a no-op, so callers never branch).
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Span-name vocabulary shared across tiers, so a stitched trace reads
// uniformly: a router's "shard" span wraps a leaf whose own block holds
// "parse", "plan", "scan" and "merge" spans.
const (
	SpanParse = "parse" // query parsing (tasmd handler)
	SpanPlan  = "plan"  // corpus scan planning (profiles, ordering)
	SpanScan  = "scan"  // one document's ring-buffer scan (detail: doc name)
	SpanShard = "shard" // one shard's fan-out leg (detail: shard name)
	SpanMerge = "merge" // ranking merge/resolve
)
