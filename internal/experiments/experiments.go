// Package experiments reproduces the evaluation of the TASM paper
// (Section VII): one runner per figure, each generating its workload,
// sweeping the figure's parameter, and reporting the same series the paper
// plots. Document scales are reduced ~100× relative to the paper's
// multi-gigabyte corpora (internal/datagen generates stand-ins that keep
// their node-count growth, height and shape); every claim the figures
// support — linear runtime, document-size-independent memory, bounded TED
// work, insensitivity to k — is scale-free.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"tasm/internal/core"
	"tasm/internal/datagen"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// Config tunes the experiment harness. The zero value is not valid; use
// Default or Quick.
type Config struct {
	// Seed drives all deterministic generation.
	Seed int64
	// Scales are the XMark scale factors standing in for the paper's
	// document sizes (112–1792 MB ≙ scales 1–16 here).
	Scales []int
	// QuerySizes for the query-size sweeps.
	QuerySizes []int
	// Ks for the k sweep of Figure 9c.
	Ks []int
	// K is the fixed result size for the document/query sweeps.
	K int
	// PSDEntries and DBLPRecords size the pruning experiments
	// (Figures 11–12).
	PSDEntries   int
	DBLPRecords  int
	QueriesPerSz int // queries averaged per configuration
}

// Default mirrors the paper's sweeps at reproduction scale.
func Default() Config {
	return Config{
		Seed:         1,
		Scales:       []int{1, 2, 4, 8, 16},
		QuerySizes:   []int{4, 8, 16, 32, 64},
		Ks:           []int{1, 10, 100, 1000, 10000},
		K:            5,
		PSDEntries:   4000,
		DBLPRecords:  30000,
		QueriesPerSz: 2,
	}
}

// Quick is a minutes-not-hours configuration for tests and smoke runs.
func Quick() Config {
	return Config{
		Seed:         1,
		Scales:       []int{1, 2},
		QuerySizes:   []int{4, 8},
		Ks:           []int{1, 10, 100},
		K:            5,
		PSDEntries:   300,
		DBLPRecords:  2000,
		QueriesPerSz: 1,
	}
}

// docCache builds each XMark document once per harness run: the tree for
// TASM-dynamic and query selection, regenerated queues for streaming runs.
type docCache struct {
	cfg   Config
	mu    sync.Mutex
	trees map[int]*tree.Tree
	dicts map[int]dict.Dict
}

func newDocCache(cfg Config) *docCache {
	return &docCache{cfg: cfg, trees: map[int]*tree.Tree{}, dicts: map[int]dict.Dict{}}
}

// tree returns the materialized XMark document at the given scale.
func (c *docCache) tree(scale int) (*tree.Tree, dict.Dict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.trees[scale]; ok {
		return t, c.dicts[scale], nil
	}
	d := dict.New()
	t, err := datagen.XMark(scale).Tree(d, c.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	c.trees[scale] = t
	c.dicts[scale] = d
	return t, d, nil
}

// queue returns a fresh streaming queue of the XMark document at the given
// scale, interning into the same dictionary as the cached tree so queries
// remain compatible.
func (c *docCache) queue(scale int) (postorder.Queue, error) {
	_, d, err := c.tree(scale)
	if err != nil {
		return nil, err
	}
	return datagen.XMark(scale).Queue(d, c.cfg.Seed), nil
}

// queueNoTree returns a streaming queue without materializing the tree,
// reusing the scale's dictionary if one exists (so previously selected
// queries stay label-compatible).
func (c *docCache) queueNoTree(scale int) (postorder.Queue, error) {
	c.mu.Lock()
	d, ok := c.dicts[scale]
	if !ok {
		d = dict.New()
		c.dicts[scale] = d
	}
	c.mu.Unlock()
	return datagen.XMark(scale).Queue(d, c.cfg.Seed), nil
}

// drop releases the materialized tree for a scale, keeping the dictionary.
func (c *docCache) drop(scale int) {
	c.mu.Lock()
	delete(c.trees, scale)
	c.mu.Unlock()
}

// queries picks n deterministic queries of the requested size from the
// document at the given scale.
func (c *docCache) queries(scale, size, n int) ([]*tree.Tree, error) {
	doc, _, err := c.tree(scale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(size)*1000 + int64(scale)))
	out := make([]*tree.Tree, n)
	for i := range out {
		q, err := datagen.QueryFromDocument(doc, rng, size)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// timeIt runs f once and returns the wall-clock duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// peakLiveHeap runs f with a heapSampler and returns the peak live heap
// the sampler saw, above the live heap before f (bytes). A sample is a
// forced collection and the heap it marked live, taken on f's own
// goroutine, so nothing is allocated while it marks. Reading the heap's
// size instead would count garbage: a heap this small stays under the Go
// collector's 4 MB minimum goal, so no collection runs and the heap
// grows with whatever the run (or the generator it reads) allocates and
// drops. This mirrors the paper's Figure 10, which reports the memory
// used by the JVM during a run; subtracting the baseline keeps what the
// harness retains from earlier runs (cached dictionaries, selected
// queries) out of it.
func peakLiveHeap(f func(*heapSampler) error) (uint64, error) {
	s := &heapSampler{metric: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	s.sample()
	baseline := s.peak
	s.peak = 0
	err := f(s)
	if s.peak < baseline {
		return 0, err
	}
	return s.peak - baseline, err
}

// heapSampler samples the live heap for peakLiveHeap. As a core.Probe it
// samples at its first callback and then at most once a millisecond.
type heapSampler struct {
	metric []metrics.Sample
	last   time.Time
	peak   uint64
}

// sample forces a collection and records the heap it marked live.
func (s *heapSampler) sample() {
	runtime.GC()
	metrics.Read(s.metric)
	s.peak = max(s.peak, s.metric[0].Value.Uint64())
	s.last = time.Now()
}

func (s *heapSampler) tick() {
	if time.Since(s.last) >= time.Millisecond {
		s.sample()
	}
}

func (s *heapSampler) Candidate(int)       { s.tick() }
func (s *heapSampler) Pruned(int)          { s.tick() }
func (s *heapSampler) RelevantSubtree(int) { s.tick() }

// Hist is a histogram over subtree sizes, the measurement unit of
// Figures 11 and 12.
type Hist struct {
	counts map[int]int
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: map[int]int{}} }

// Add records one subtree of the given size.
func (h *Hist) Add(size int) { h.counts[size]++ }

// Count returns the number of subtrees of exactly the given size.
func (h *Hist) Count(size int) int { return h.counts[size] }

// Total returns the number of recorded subtrees.
func (h *Hist) Total() int {
	n := 0
	for _, c := range h.counts {
		n += c
	}
	return n
}

// MaxSize returns the largest recorded size (0 when empty).
func (h *Hist) MaxSize() int {
	mx := 0
	for s := range h.counts {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Sizes returns the distinct recorded sizes in increasing order.
func (h *Hist) Sizes() []int {
	out := make([]int, 0, len(h.counts))
	for s := range h.counts {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// CSS returns the cumulative subtree size css(x) = Σ_{i≤x} i·f_i of
// Section VII-B.
func (h *Hist) CSS(x int) int64 {
	var sum int64
	for s, c := range h.counts {
		if s <= x {
			sum += int64(s) * int64(c)
		}
	}
	return sum
}

// LogBucket aggregates counts into the log-scale bins of Figure 11c:
// [1,10), [10,50), [50,100), [100,500), [500,1000), then decades.
func (h *Hist) LogBuckets() []Bucket {
	edges := []int{1, 10, 50, 100, 500, 1000, 10000, 100000, 1000000, 10000000, 100000000}
	out := make([]Bucket, 0, len(edges))
	for i := 0; i < len(edges); i++ {
		lo := edges[i]
		hi := 1 << 62
		if i+1 < len(edges) {
			hi = edges[i+1]
		}
		n := 0
		for s, c := range h.counts {
			if s >= lo && s < hi {
				n += c
			}
		}
		if n > 0 || i < 6 {
			out = append(out, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return out
}

// Bucket is one log-scale histogram bin.
type Bucket struct {
	Lo, Hi int // [Lo, Hi)
	Count  int
}

// probe adapts histograms to the core instrumentation interface.
type probe struct {
	relevant   *Hist
	candidates *Hist
	pruned     *Hist
}

func newProbe() *probe {
	return &probe{relevant: NewHist(), candidates: NewHist(), pruned: NewHist()}
}

func (p *probe) RelevantSubtree(size int) { p.relevant.Add(size) }
func (p *probe) Candidate(size int)       { p.candidates.Add(size) }
func (p *probe) Pruned(size int)          { p.pruned.Add(size) }

var _ core.Probe = (*probe)(nil)

// table writes a fixed-width row.
func table(w io.Writer, cols ...interface{}) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%12v", c)
	}
	fmt.Fprintln(w)
}
