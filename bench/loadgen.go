package main

// The load generator: one HTTP client over at most nproc keep-alive
// connections, a closed loop (each connection sends its next request when
// the previous one completes) and an open loop (requests are due on a
// fixed schedule and timed from when they were due).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasm/internal/qtrace"
)

// requestTimeout bounds one request; a request that exceeds it is a
// failure.
const requestTimeout = 5 * time.Second

// sample is one completed (or failed) request.
type sample struct {
	idx    int32         // pool index
	lat    time.Duration // completion − send (closed) or − due time (open)
	late   time.Duration // open loop: actual send − due time
	bytes  int           // response body size
	ok     bool          // 2xx and the answer equals the oracle's
	cached bool          // stats.cached of the response
}

// wireMatch and wireResponse are the parts of tasmd's topk and topk-batch
// responses the harness reads.
type wireMatch struct {
	Doc  string  `json:"doc"`
	Pos  int     `json:"pos"`
	Dist float64 `json:"dist"`
	Size int     `json:"size"`
}

type wireStats struct {
	Scanned       int    `json:"scanned"`
	Skipped       int    `json:"skipped"`
	HistSkipped   uint64 `json:"histSkipped"`
	TEDAborted    uint64 `json:"tedAborted"`
	Evaluated     uint64 `json:"evaluated"`
	OverlayLabels int    `json:"overlayLabels"`
	Cached        bool   `json:"cached"`
}

type wireResponse struct {
	Matches []wireMatch   `json:"matches"`
	Results [][]wireMatch `json:"results"`
	Stats   wireStats     `json:"stats"`
	Trace   *qtrace.Wire  `json:"trace"`
}

// answer renders a response's ranked (doc, pos, dist, size) lists in the
// canonical form the oracle's answers are rendered in, so a byte
// comparison decides correctness.
func (r *wireResponse) answer() string {
	var sb strings.Builder
	lists := r.Results
	if lists == nil {
		lists = [][]wireMatch{r.Matches}
	}
	for _, ms := range lists {
		for _, m := range ms {
			writeMatch(&sb, m.Doc, m.Pos, m.Dist, m.Size)
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func writeMatch(sb *strings.Builder, doc string, pos int, dist float64, size int) {
	sb.WriteString(doc)
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(pos))
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatFloat(dist, 'g', -1, 64))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(size))
	sb.WriteByte(';')
}

// target is what the generator sends to: a URL, the request pool, the
// order to walk it in and the expected answer of every pool entry.
type target struct {
	client *http.Client
	url    string // endpoint URL, e.g. http://127.0.0.1:1234/v1/topk
	pool   []request
	want   []string // oracle answer per pool entry
	seq    []int32
	next   atomic.Int64 // position in seq, shared by all phases
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends one request body and decodes the response. The returned
// error covers transport failures, timeouts and non-2xx statuses.
func post(client *http.Client, url string, body []byte, out *wireResponse) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

// nextIdx returns the pool index of the next request of the sequence.
func (t *target) nextIdx() int32 { return t.seq[int(t.next.Add(1)-1)%len(t.seq)] }

// send issues pool entry idx and checks its answer. since is the instant
// latency is measured from; suffix is appended to the URL.
func (t *target) send(idx int32, since time.Time, suffix string) (sample, *wireResponse) {
	var resp wireResponse
	n, err := post(t.client, t.url+suffix, t.pool[idx].body, &resp)
	s := sample{idx: idx, lat: time.Since(since), bytes: n}
	if err == nil {
		s.ok = resp.answer() == t.want[idx]
		s.cached = resp.Stats.Cached
	}
	return s, &resp
}

// gather runs worker on conns goroutines, one per connection, and returns
// every sample they produced.
func gather(conns int, worker func() []sample) []sample {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := worker()
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// closedLoop runs conns connections back to back until the deadline or
// until count requests have completed (count ≤ 0: no limit) and returns
// every sample.
func (t *target) closedLoop(ctx context.Context, conns int, d time.Duration, count int) []sample {
	deadline := time.Now().Add(d)
	var left atomic.Int64
	left.Store(int64(count))
	return gather(conns, func() (mine []sample) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			if count > 0 && left.Add(-1) < 0 {
				break
			}
			s, _ := t.send(t.nextIdx(), time.Now(), "")
			mine = append(mine, s)
		}
		return mine
	})
}

// openLoop sends at a fixed rate for d over conns connections. Request i
// is due at start + i/rate; a connection that becomes free takes the next
// due request, sleeps if it is early, and times the request from its due
// time — so a stall delays every request queued behind it and the delay
// is in their latencies (no coordinated omission). late records how far
// behind schedule each request was actually sent.
func (t *target) openLoop(ctx context.Context, conns int, d time.Duration, rate float64) []sample {
	start := time.Now()
	total := int64(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	return gather(conns, func() (mine []sample) {
		for ctx.Err() == nil {
			i := next.Add(1) - 1
			if i >= total {
				break
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			s, _ := t.send(t.nextIdx(), due, "")
			s.late = sent.Sub(due)
			mine = append(mine, s)
		}
		return mine
	})
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPermille are the tail percentiles a report may quote, highest
// first, in tenths of a percent so that the sample arithmetic is exact.
var tailPermille = []int{999, 990, 980, 950, 900, 750}

// supportedTail returns the highest percentile of tailPermille, not above
// want, that has at least ten samples beyond it in a sample of n; 50 when
// even p75 has not.
func supportedTail(n int, want float64) float64 {
	for _, pm := range tailPermille {
		if p := float64(pm) / 10; p <= want && n*(1000-pm)/1000 >= 10 {
			return p
		}
	}
	return 50
}

// latenciesMs extracts the latencies of the samples pick accepts, in
// milliseconds, sorted.
func latenciesMs(samples []sample, pick func(*sample) bool) []float64 {
	out := make([]float64, 0, len(samples))
	for i := range samples {
		if pick == nil || pick(&samples[i]) {
			out = append(out, float64(samples[i].lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// countFailed returns how many samples failed.
func countFailed(samples []sample) int {
	n := 0
	for i := range samples {
		if !samples[i].ok {
			n++
		}
	}
	return n
}
