package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasm/corpus"
	"tasm/internal/dict"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// Client is a corpus.Searcher over a remote tasmd instance's HTTP API:
// queries are serialized in bracket notation, re-interned by the server
// through its own request-scoped dictionary overlay, and answered from
// its corpus (or, when the remote is itself a router, its shard group).
// Contexts are honored end to end — the HTTP request carries the ctx, so
// a cancelled query aborts the connection and the server's ctx plumbing
// stops the remote scan.
//
// # Fault tolerance
//
// Every request runs under a retry loop: retryable failures (connect
// errors, torn response bodies, gateway-class 502/503/504 responses) are
// retried up to RetryPolicy.MaxAttempts times with bounded exponential
// backoff plus jitter, each attempt under its own per-attempt timeout
// and with a freshly built request body. Deterministic failures (4xx,
// a 500 scan error, an oversized response) are never retried. A
// per-client circuit breaker counts consecutive attempt failures; once
// open, requests fail locally with ErrBreakerOpen until a cooldown
// passes and a half-open probe succeeds — so a dead leaf is skipped
// cheaply instead of re-timed-out by every query.
//
// The shared-cutoff protocol of a local Group does not cross the process
// boundary: the remote end prunes within itself only, and a surrounding
// Group folds the returned k-th distance into its cutoff after the
// response arrives. WithoutCandidatePruning is not part of the wire API
// and is ignored.
//
// A Client is safe for concurrent use.
type Client struct {
	base    string
	name    string
	hc      *http.Client
	retry   RetryPolicy
	breaker *breaker
	maxResp int64

	gen          atomic.Uint64 // last generation observed from /healthz
	genRefreshed atomic.Int64  // unix nanos of the last refresh start
	numDocs      atomic.Int64  // last document count observed; -1 = never

	mu sync.Mutex
	// docs caches the remote manifest for enriching matches, keyed by
	// document NAME: names are unique across a whole deployment (the same
	// contract as within one corpus), while ids are only unique per leaf —
	// a client pointed at a router sees its leaves' id spaces collide.
	docs map[string]corpus.DocInfo
	// docsList is the cached listing in manifest order, and docsGen the
	// remote generation it was fetched under (0 = no valid cached
	// listing). Docs serves the cache while the remote generation
	// still matches, so a router resolving WithDocs selections pays a
	// /healthz round trip instead of re-transferring the full manifest.
	docsList []corpus.DocInfo
	docsGen  uint64
}

var _ corpus.Searcher = (*Client)(nil)

// RetryPolicy configures the client's retry loop.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per request (1 = no retry).
	// 0 selects the default.
	MaxAttempts int
	// AttemptTimeout caps each attempt; when it expires the attempt is
	// retried (budget permitting) while the caller's context stays live.
	// 0 leaves attempts bounded only by the HTTP client and the caller.
	AttemptTimeout time.Duration
	// BaseBackoff is the backoff before the first retry; it doubles per
	// retry up to MaxBackoff, and the actual sleep is jittered over
	// [backoff/2, backoff]. 0 selects the default.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. 0 selects the default.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the retry loop every NewClient starts with.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseBackoff: 50 * time.Millisecond,
	MaxBackoff:  2 * time.Second,
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRetryPolicy.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	return p
}

// ErrResponseTooLarge reports a response body that exceeded the client's
// size cap. It travels wrapped in a *corpus.ScanError — a truncated body
// must surface as "response too large", never as a confusing JSON decode
// failure.
var ErrResponseTooLarge = errors.New("response too large")

// defaultMaxResponseBytes caps response bodies; see WithMaxResponseBytes.
const defaultMaxResponseBytes = 256 << 20

// ClientOption configures a Client. tasmd builds its clients with the
// defaults; every option but WithHTTPClient is set only by tests (this
// package's and cmd/tasmd's, which is why they are exported).
type ClientOption func(*Client)

// WithHTTPClient substitutes the HTTP client (default: 5-minute timeout,
// matching the server's write timeout for long scans).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithName overrides the name the client reports in errors and to a
// surrounding Group (default: the base URL).
func WithName(name string) ClientOption {
	return func(c *Client) { c.name = name }
}

// WithRetryPolicy overrides the retry loop (default DefaultRetryPolicy).
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// WithBreakerPolicy overrides the circuit breaker (default
// DefaultBreakerPolicy; Threshold < 0 disables it).
func WithBreakerPolicy(p BreakerPolicy) ClientOption {
	return func(c *Client) { c.breaker = newBreaker(p) }
}

// WithMaxResponseBytes overrides the response body cap (default 256 MiB).
// A larger response fails with ErrResponseTooLarge wrapped in a
// *corpus.ScanError.
func WithMaxResponseBytes(n int64) ClientOption {
	return func(c *Client) { c.maxResp = n }
}

// NewClient returns a Searcher speaking to the tasmd instance at baseURL
// (e.g. "http://db1:8421"). No connection is made until the first call.
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	baseURL = strings.TrimRight(baseURL, "/")
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		return nil, fmt.Errorf("shard: base URL %q must start with http:// or https://", baseURL)
	}
	c := &Client{
		base:    baseURL,
		name:    baseURL,
		hc:      &http.Client{Timeout: 5 * time.Minute},
		retry:   DefaultRetryPolicy,
		breaker: newBreaker(DefaultBreakerPolicy),
		maxResp: defaultMaxResponseBytes,
		docs:    map[string]corpus.DocInfo{},
	}
	c.numDocs.Store(-1)
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Name returns the client's name (the base URL unless overridden); a
// Group uses it to attribute failures.
func (c *Client) Name() string { return c.name }

// BreakerState returns the circuit breaker's current state, for
// telemetry (a router exports it per shard on /metrics).
func (c *Client) BreakerState() BreakerState { return c.breaker.snapshot() }

// TopK is TopKBatch for a batch of one.
func (c *Client) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	if err := corpus.ValidateQuery(q, k); err != nil {
		return nil, err
	}
	results, err := c.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TopKBatch answers the queries remotely in one request (one remote
// corpus scan serves all of them). The query trees may come from any
// dictionary — they travel as bracket strings and are re-interned by the
// server. A single query travels as /v1/topk, the endpoint that takes a
// worker count; several as /v1/topk-batch.
func (c *Client) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	cfg := corpus.ResolveQueryOptions(opts...)
	if err := corpus.ValidateBatch(queries, k, &cfg); err != nil {
		return nil, err
	}
	req := Request{
		K:          k,
		Docs:       cfg.Docs,
		Trees:      !cfg.NoTrees,
		Exhaustive: cfg.NoFilter,
		Partial:    cfg.Partial,
	}
	var resp BatchResponse
	var attempts int
	var err error
	if len(queries) == 1 {
		req.Query, req.Workers = queries[0].String(), cfg.Workers
		var single TopKResponse
		attempts, err = c.post(ctx, "/v1/topk", req, &single)
		resp = BatchResponse{Results: [][]Match{single.Matches}, Stats: single.Stats, Trace: single.Trace}
	} else {
		req.Queries = make([]string, len(queries))
		for i, q := range queries {
			req.Queries[i] = q.String()
		}
		attempts, err = c.post(ctx, "/v1/topk-batch", req, &resp)
	}
	results := resp.Results
	if err == nil && len(results) != len(queries) {
		err = &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("%d result lists for %d queries", len(results), len(queries))}
	}
	if err != nil {
		// Retries burned by a failed request still happened: record them
		// so a replica set losing this attempt keeps the accounting.
		if cfg.Stats != nil {
			c.recordAttempts(cfg.Stats, attempts)
		}
		return nil, err
	}
	qtrace.FromContext(ctx).AddChild(resp.Trace)
	if cfg.Stats != nil {
		*cfg.Stats = resp.Stats
		// The remote's result cache is its own: whoever serves this answer
		// reports its own cache.
		cfg.Stats.Cached = false
		c.recordAttempts(cfg.Stats, attempts)
	}
	out := make([][]corpus.Match, len(results))
	for i, ws := range results {
		ms, err := c.matches(ctx, ws)
		if err != nil {
			return nil, err
		}
		out[i] = ms
		// Late cutoff propagation: the remote scan could not see the group's
		// bound, but its answer still tightens it for shards that are slower.
		if cfg.Cutoffs != nil && cfg.Cutoffs[i] != nil && len(ms) == k {
			cfg.Cutoffs[i].Tighten(ms[k-1].Dist)
		}
	}
	return out, nil
}

// recordAttempts folds the query's own retry accounting into its stats.
func (c *Client) recordAttempts(s *corpus.Stats, attempts int) {
	if attempts > 1 {
		s.Retries += uint64(attempts - 1)
		s.Retried = append(s.Retried, c.name)
	}
}

// Docs fetches the remote manifest under the caller's context; a
// transport failure is a *corpus.ScanError naming this client. A Group
// resolves WithDocs selections through it, so a shard outage surfaces as
// that shard's failure rather than as "unknown document".
//
// The listing is generation-cached: a cheap /healthz round trip checks
// whether the remote document set changed since the cached listing was
// fetched, and only a changed generation re-transfers the manifest.
func (c *Client) Docs(ctx context.Context) ([]corpus.DocInfo, error) {
	var health struct {
		Generation uint64 `json:"generation"`
		Docs       int64  `json:"docs"`
	}
	if _, err := c.get(ctx, "/healthz", &health); err != nil {
		return nil, err
	}
	c.gen.Store(health.Generation)
	c.numDocs.Store(health.Docs)
	c.mu.Lock()
	if c.docsGen != 0 && c.docsGen == health.Generation {
		cached := make([]corpus.DocInfo, len(c.docsList))
		copy(cached, c.docsList)
		c.mu.Unlock()
		return cached, nil
	}
	c.mu.Unlock()
	return c.fetchDocs(ctx)
}

// DocsContext is Docs. It stays only because bench/trace.go calls it
// (ROADMAP 1(c)).
func (c *Client) DocsContext(ctx context.Context) ([]corpus.DocInfo, error) { return c.Docs(ctx) }

// genRefreshTTL rate-limits background generation refreshes: between
// refreshes Generation serves the cached value, so cache-key computation
// on a router's request hot path never blocks on a remote round trip.
const genRefreshTTL = time.Second

// Generation returns the last remote generation observed from /healthz,
// kicking off (at most once per genRefreshTTL) a background refresh. The
// value therefore lags the remote corpus by at most the TTL plus one
// round trip — a result cache keyed on it serves answers at most that
// stale after a remote ingest or removal, and is exactly invalidated
// once the refresh lands. A fresh client reports 0 until its first
// refresh completes; an unreachable server leaves the last value
// standing (queries against it fail anyway).
func (c *Client) Generation() uint64 {
	now := time.Now().UnixNano()
	last := c.genRefreshed.Load()
	if now-last >= int64(genRefreshTTL) && c.genRefreshed.CompareAndSwap(last, now) {
		go c.refreshGeneration()
	}
	return c.gen.Load()
}

// refreshGeneration fetches /healthz once and stores the generation and
// document count it reports.
func (c *Client) refreshGeneration() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var health struct {
		Generation uint64 `json:"generation"`
		Docs       int64  `json:"docs"`
	}
	if _, err := c.get(ctx, "/healthz", &health); err == nil {
		c.gen.Store(health.Generation)
		c.numDocs.Store(health.Docs)
	}
}

// NumDocs returns the last remote document count observed (from /healthz
// refreshes and manifest fetches) without a remote round trip, so
// liveness probes and metric scrapes through a router never block on its
// leaves. false until the server has been reached at least once; a
// rate-limited background refresh is kicked either way.
func (c *Client) NumDocs() (int, bool) {
	c.Generation() // kicks the rate-limited async refresh
	if n := c.numDocs.Load(); n >= 0 {
		return int(n), true
	}
	return 0, false
}

// matches converts wire matches, enriching each DocInfo from the cached
// remote manifest (refreshed once per call on a miss — e.g. after a
// remote ingest). A document that vanished between the response and the
// refresh keeps the id and name the response carried.
func (c *Client) matches(ctx context.Context, ws []Match) ([]corpus.Match, error) {
	out := make([]corpus.Match, len(ws))
	refreshed := false
	var d dict.Dict // one response-local dictionary for returned trees
	for i, w := range ws {
		info, ok := c.lookupDoc(w.Doc)
		if !ok && !refreshed {
			refreshed = true
			if _, err := c.fetchDocs(ctx); err == nil {
				info, ok = c.lookupDoc(w.Doc)
			}
		}
		if !ok {
			info = corpus.DocInfo{ID: w.DocID, Name: w.Doc}
		}
		out[i] = corpus.Match{Doc: info, Pos: w.Pos, Dist: w.Dist, Size: w.Size}
		if w.Tree != "" {
			if d == nil {
				d = dict.New()
			}
			t, err := tree.Parse(d, w.Tree)
			if err != nil {
				return nil, fmt.Errorf("shard: %s returned unparseable match tree: %w", c.name, err)
			}
			out[i].Tree = t
		}
	}
	return out, nil
}

func (c *Client) lookupDoc(name string) (corpus.DocInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[name]
	return d, ok
}

// fetchDocs retrieves the remote manifest and replaces the cache. The
// listing response carries the generation it was served under, which
// keys the cache Docs consults.
func (c *Client) fetchDocs(ctx context.Context) ([]corpus.DocInfo, error) {
	var listing struct {
		Docs       []corpus.DocInfo `json:"docs"`
		Generation uint64           `json:"generation"`
	}
	if _, err := c.get(ctx, "/v1/docs", &listing); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.docs = make(map[string]corpus.DocInfo, len(listing.Docs))
	for _, d := range listing.Docs {
		c.docs[d.Name] = d
	}
	c.docsList = listing.Docs
	c.docsGen = listing.Generation
	c.mu.Unlock()
	c.numDocs.Store(int64(len(listing.Docs)))
	if listing.Generation != 0 {
		c.gen.Store(listing.Generation)
	}
	return listing.Docs, nil
}

// post sends a JSON request and decodes the JSON response into out,
// returning the number of attempts made. When the context carries a
// trace marked for propagation, the request asks the remote tier for its
// trace block (?trace=1) and stitches the tiers with a W3C traceparent
// header: the remote tasmd continues this trace's id and names our root
// span as its parent, so the caller's AddChild produces one tree of
// spans across processes.
func (c *Client) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	url := c.base + path
	var hdr http.Header
	tr := qtrace.FromContext(ctx)
	if tr.Propagate() {
		url += "?trace=1"
		hdr = http.Header{"traceparent": []string{tr.Traceparent()}}
	}
	return c.roundTrip(ctx, http.MethodPost, url, data, hdr, out)
}

// get sends a GET request and decodes the JSON response into out.
func (c *Client) get(ctx context.Context, path string, out any) (int, error) {
	return c.roundTrip(ctx, http.MethodGet, c.base+path, nil, nil, out)
}

// roundTrip is the retry loop every request runs under: per-attempt
// timeouts, a freshly built request per attempt (bodies cannot be
// replayed from a consumed reader), bounded exponential backoff with
// jitter between retryable failures, and the circuit breaker consulted
// before — and informed after — every attempt. The client's requests are
// all reads (queries, listings, health), so retrying is always safe.
// Returns the number of attempts made alongside the final outcome.
func (c *Client) roundTrip(ctx context.Context, method, url string, body []byte, hdr http.Header, out any) (int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return attempt - 1, err
		}
		ok, probe := c.breaker.allow()
		if !ok {
			return attempt - 1, &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("%w (skipping %s)", ErrBreakerOpen, c.name)}
		}
		retryable, responded, err := c.attempt(ctx, method, url, body, hdr, out)
		if err == nil {
			c.breaker.success()
			return attempt, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller gave up (the per-attempt timeout never surfaces
			// here — attempt maps it to a retryable failure): neither a
			// breaker strike nor a retry, and no verdict on the shard — a
			// half-open probe reverts to open so the next request re-probes
			// instead of the breaker wedging.
			c.breaker.noVerdict(probe)
			return attempt, err
		}
		if !retryable {
			// Deterministic failures (4xx, scan errors, oversized
			// responses) are not strikes — but when the shard answered at
			// all it is alive, which settles a probe (and the failure
			// streak) as success. A pre-network failure settles nothing.
			if responded {
				c.breaker.success()
			} else {
				c.breaker.noVerdict(probe)
			}
			return attempt, err
		}
		c.breaker.failure()
		lastErr = err
		if attempt >= c.retry.MaxAttempts {
			return attempt, lastErr
		}
		if err := sleepBackoff(ctx, c.retry.backoff(attempt)); err != nil {
			return attempt, err
		}
	}
}

// backoff returns the jittered backoff before retry n (1-based):
// exponential from BaseBackoff, capped at MaxBackoff, jittered over
// [d/2, d] so synchronized retries from many routers spread out.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// sleepBackoff waits for d or the caller's cancellation.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attempt executes one try of the request and reports whether its
// failure is worth retrying — connect errors, a per-attempt timeout, a
// torn response body and gateway-class 502/503/504 responses are
// transient; everything else is deterministic — and whether the shard
// responded at all (an HTTP response arrived, so the shard is alive; the
// breaker settles a half-open probe on it). Transport failures and 5xx
// responses map to *corpus.ScanError (backend-side state, named after
// this client), 4xx responses to plain errors (the caller's mistake
// travels back as such).
func (c *Client) attempt(parent context.Context, method, url string, body []byte, hdr http.Header, out any) (retryable, responded bool, err error) {
	ctx := parent
	if c.retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, c.retry.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return false, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, false, c.transportError(parent, ctx, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxResp+1))
	if err != nil {
		// A mid-body connection reset: the shard (or the path to it) tore
		// the response. Retryable — the next attempt gets a fresh body.
		return true, true, c.transportError(parent, ctx, err)
	}
	if int64(len(data)) > c.maxResp {
		return false, true, &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("%w: body exceeds %d bytes", ErrResponseTooLarge, c.maxResp)}
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		msg := strings.TrimSpace(string(data))
		var wireErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &wireErr) == nil && wireErr.Error != "" {
			msg = wireErr.Error
		}
		if resp.StatusCode >= 500 {
			retry := resp.StatusCode == http.StatusBadGateway ||
				resp.StatusCode == http.StatusServiceUnavailable ||
				resp.StatusCode == http.StatusGatewayTimeout
			return retry, true, &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("%s: %s", resp.Status, msg)}
		}
		return false, true, fmt.Errorf("tasmd %s: %s: %s", c.name, resp.Status, msg)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, true, &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("unparseable response: %w", err)}
	}
	return false, true, nil
}

// transportError classifies a failed attempt's transport error: the
// caller's own cancellation surfaces as such (the group's error policy
// distinguishes cancellation from shard failure), a per-attempt timeout
// and genuine connect errors become attributable scan errors.
func (c *Client) transportError(parent, attempt context.Context, err error) error {
	if ctxErr := parent.Err(); ctxErr != nil {
		return ctxErr
	}
	if attempt.Err() != nil {
		// Deliberately NOT wrapping attempt.Err(): a per-attempt timeout
		// must look like a retryable shard failure, not like the caller's
		// own DeadlineExceeded (which ends the retry loop).
		return &corpus.ScanError{Shard: c.name, Err: fmt.Errorf("attempt timed out after %s", c.retry.AttemptTimeout)}
	}
	return &corpus.ScanError{Shard: c.name, Err: err}
}
