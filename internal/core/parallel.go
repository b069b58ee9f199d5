package core

import (
	"runtime"
	"sync"

	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// workerPool is where a single query's filled views go when the caller
// asked for workers: the scan itself stays sequential (it is a cheap
// pass), the kernel applies the label-histogram and τ′ gates, copies each
// retained subtree into a pooled flat view, and hands it to a worker.
// Each worker owns its own distance computer AND its own k-entry ranking:
// entries accumulate locally and are merged into the shared ranking only
// when the worker's local k-th distance beats the globally published one
// (and once at drain), so there is no per-candidate critical section. The
// shared ranking's k-th distance is published through a lock-free
// ranking.Cutoff that the kernel's gates, the workers' local cutoffs and
// the early-abort TED evaluations all read with one atomic load.
type workerPool struct {
	cut  *ranking.Cutoff
	work chan workItem
	wg   sync.WaitGroup
	mu   sync.Mutex // guards the shared ranking and serializes probe callbacks
}

// viewPool recycles flat candidate views between the kernel (which fills
// them) and the workers (which return them after evaluation), so a
// steady-state scan ships work without per-subtree allocation.
var viewPool = sync.Pool{New: func() any { return new(tree.View) }}

// workItem is one retained subtree, copied out of the candidate source
// into a pooled flat view.
type workItem struct {
	view *tree.View
	base int // global postorder position of the view's first node
}

// startWorkers starts a pool of workers (≤ 0: GOMAXPROCS) ranking into
// the ranking of sc's single query, each on its own of the scratch's
// worker computers. opts is the scan's own copy: its probe, if any, is
// wrapped so the kernel's and the workers' callbacks are serialized.
func startWorkers(sc *ScanScratch, workers int, opts *Options) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &sc.states[0]
	// The shared ranking publishes its k-th distance through a lock-free
	// cutoff. A publisher attached by the caller (the corpus scan reuses
	// one across documents so earlier documents tighten later ones) is
	// kept; otherwise a scan-local one is installed.
	p := &workerPool{cut: st.rank.CutoffPublisher()}
	if p.cut == nil {
		p.cut = ranking.NewCutoff()
		st.rank.PublishTo(p.cut)
	}
	if opts.Probe != nil {
		opts.Probe = &lockedProbe{p: opts.Probe, mu: &p.mu}
	}
	p.work = make(chan workItem, 2*workers) // one item in hand and one queued per worker
	k := st.rank.K()
	for _, comp := range sc.workerComputers(workers, opts.model()) {
		comp.SetProbe(opts.Probe)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			local := ranking.New(k)
			var counts tally
			defer counts.flush(opts.Prune)
			for item := range p.work {
				// The evaluation is bounded by the tighter of the worker's
				// local k-th distance and the published shared one: a subtree
				// that can beat neither cannot reach the final top k (the local
				// heap already holds k better entries, which all compete at
				// drain). Materialization consults the published bound too:
				// the local heap alone would materialize its first k entries
				// even when the shared ranking already holds k far better
				// ones, and an entry above the published k-th can never be
				// retained at drain time (the shared k-th only tightens); an
				// exact tie still materializes, since it may win its position
				// tie-break.
				published := p.cut.Load()
				cutoff := published
				if local.Full() && local.Max().Dist < cutoff {
					cutoff = local.Max().Dist
				}
				rankView(comp, item.view, item.base, cutoff, published, local, opts, &counts)
				viewPool.Put(item.view)
				// Merge-on-improvement: only a local k-th distance that
				// beats the published shared one can tighten the global
				// bound, so only then is the mutex taken. Draining (rather
				// than copying) the local heap guarantees no entry is
				// pushed into the shared ranking twice.
				if local.Full() && local.Max().Dist < p.cut.Load() {
					p.drain(st.rank, local)
				}
			}
			// Final drain: whatever the local ranking still holds competes
			// exactly once for the shared top k.
			if local.Len() > 0 {
				p.drain(st.rank, local)
			}
		}()
	}
	return p
}

// drain merges a worker's local ranking into the shared one.
func (p *workerPool) drain(shared, local *ranking.Heap) {
	p.mu.Lock()
	shared.Drain(local)
	p.mu.Unlock()
}

// wait closes the work channel and returns once the workers have drained
// it and merged their rankings.
func (p *workerPool) wait() {
	close(p.work)
	p.wg.Wait()
}

// lockedProbe serializes probe callbacks from the kernel and the workers.
type lockedProbe struct {
	p  Probe
	mu *sync.Mutex
}

func (l *lockedProbe) Candidate(size int) {
	l.mu.Lock()
	l.p.Candidate(size)
	l.mu.Unlock()
}

func (l *lockedProbe) Pruned(size int) {
	l.mu.Lock()
	l.p.Pruned(size)
	l.mu.Unlock()
}

func (l *lockedProbe) RelevantSubtree(size int) {
	l.mu.Lock()
	l.p.RelevantSubtree(size)
	l.mu.Unlock()
}
