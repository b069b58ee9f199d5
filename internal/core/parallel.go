package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// PostorderParallel is TASM-postorder with the tree-edit-distance work
// fanned out to a worker pool — an extension beyond the paper, whose
// evaluation is explicitly single-threaded. The prefix ring buffer scan
// stays sequential (it is a cheap streaming pass); the producer applies
// the label-histogram and τ′ gates, copies each retained subtree into a
// pooled flat view, and hands it to a worker. Each worker owns its own
// distance computer AND its own k-entry ranking: entries accumulate
// locally and are merged into the shared ranking only when the worker's
// local k-th distance beats the globally published one (and once at
// drain), so the per-candidate critical section of earlier versions is
// gone. The shared ranking's k-th distance is published through a
// lock-free ranking.Cutoff that the producer's gates, the workers' local
// cutoffs and the early-abort TED evaluations all read with one atomic
// load.
//
// The returned distances are identical to PostorderStream's: subtree
// evaluations are independent, and every gate only ever discards (or
// aborts to +Inf) subtrees that cannot beat the current k-th distance, so
// processing order does not affect the final distance multiset (reported
// tie positions at the pruning boundary may differ, as Definition 1
// permits). workers ≤ 0 selects GOMAXPROCS.
func PostorderParallel(q *tree.Tree, docQ postorder.Queue, k, workers int, opts Options) ([]Match, error) {
	if err := validate(q, k); err != nil {
		return nil, err
	}
	r := ranking.New(k)
	if err := parallelStream(q, docQ, r, 0, workers, false, opts); err != nil {
		return nil, err
	}
	return r.Sorted(), nil
}

// PostorderParallelInto is PostorderStreamInto with the distance work
// fanned out to a worker pool: one document stream is scanned into an
// existing shared ranking r with positions offset by posOffset. Like
// PostorderStreamInto it prunes with the order-independent strict margin,
// which also makes the parallel form fully deterministic — every subtree
// that could reach the final ranking (including exact ties) is evaluated
// no matter how workers interleave.
func PostorderParallelInto(q *tree.Tree, docQ postorder.Queue, r *ranking.Heap, posOffset, workers int, opts Options) error {
	if err := validate(q, r.K()); err != nil {
		return err
	}
	return parallelStream(q, docQ, r, posOffset, workers, true, opts)
}

// parallelStream runs parallelScan over a ring buffer fed by docQ.
func parallelStream(q *tree.Tree, docQ postorder.Queue, r *ranking.Heap, posOffset, workers int, strictTies bool, opts Options) error {
	if docQ == nil {
		return fmt.Errorf("tasm: document queue must not be nil")
	}
	tau, err := opts.tau(q, r.K())
	if err != nil {
		return err
	}
	return parallelScan(q, prb.New(docQ, tau), tau, r, posOffset, workers, strictTies, opts)
}

// viewPool recycles flat candidate views between the producer (which
// fills them from the ring buffer) and the workers (which return them
// after evaluation), so a steady-state scan ships work without
// per-subtree allocation.
var viewPool = sync.Pool{New: func() any { return new(tree.View) }}

// workItem is one retained subtree, copied out of the ring buffer into a
// pooled flat view.
type workItem struct {
	view *tree.View
	base int // global postorder position of the view's first node
}

// parallelScan is the shared body of PostorderParallel,
// PostorderParallelInto and PostorderColumnsInto with workers: it starts
// the worker pool, runs the producer over src on the calling goroutine,
// and waits for the workers to drain; see postorderScan for the
// strictTies contract.
func parallelScan(q *tree.Tree, src candidateSource, tau int, r *ranking.Heap, posOffset, workers int, strictTies bool, opts Options) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	model := opts.model()
	k := r.K()

	// The shared ranking publishes its k-th distance through a lock-free
	// cutoff. A publisher attached by the caller (the corpus scan reuses
	// one across documents so earlier documents tighten later ones) is
	// kept; otherwise a scan-local one is installed.
	cut := r.CutoffPublisher()
	if cut == nil {
		cut = ranking.NewCutoff()
		r.PublishTo(cut)
	}
	shared := &sharedRanking{heap: r}

	work := make(chan workItem, 2*workers) // one item in hand and one queued per worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp := ted.NewComputer(model, q)
			if opts.Probe != nil {
				comp.SetProbe(&lockedProbe{p: opts.Probe, mu: &shared.mu})
			}
			local := ranking.New(k)
			for item := range work {
				evaluateView(comp, item, local, cut, &opts)
				viewPool.Put(item.view)
				// Merge-on-improvement: only a local k-th distance that
				// beats the published shared one can tighten the global
				// bound, so only then is the mutex taken. Draining (rather
				// than copying) the local heap guarantees no entry is
				// pushed into the shared ranking twice.
				if local.Full() && local.Max().Dist < cut.Load() {
					shared.mu.Lock()
					shared.heap.Drain(local)
					shared.mu.Unlock()
				}
			}
			// Final drain: whatever the local ranking still holds competes
			// exactly once for the shared top k.
			if local.Len() > 0 {
				shared.mu.Lock()
				shared.heap.Drain(local)
				shared.mu.Unlock()
			}
		}()
	}

	var hist *prb.LabelHist
	if !opts.DisableHistogramBound {
		hist = prb.NewLabelHist(q) // the producer's own: the workers' computers run on other goroutines
	}
	// A cancelled context or a failing source stops production; the work
	// channel closes and the workers drain the few buffered items before
	// exiting — no goroutine outlives the call.
	err := produce(q, src, hist, tau, cut, &shared.mu, work, posOffset, strictTies, &opts)
	close(work)
	wg.Wait()
	return err
}

// produce is the parallel scan's producer: the sequential candidate
// enumeration with the reverse-postorder subtree traversal of
// Algorithm 3; each retained subtree is copied into a pooled view and
// shipped to a worker.
//
// Unlike scanCandidates, the gates are applied before a subtree is copied
// and shipped: a subtree that is already hopeless at production time
// never costs a view fill or a channel transfer. The cutoff the producer
// (and every worker) consults is the lock-free published k-th distance of
// the shared ranking, which may lag behind merges still in flight — but
// it only ever tightens, so a stale read merely evaluates a subtree that
// a fresher bound would have skipped, never the reverse. probeMu
// serializes probe callbacks with the workers'.
//
//tasm:hotpath
func produce(q *tree.Tree, src candidateSource, hist *prb.LabelHist, tau int, cut *ranking.Cutoff, probeMu *sync.Mutex, work chan<- workItem, posOffset int, strictTies bool, opts *Options) error {
	m := q.Size()
	d := q.Dict()
	done := opts.done()
	for {
		// Cancellation poll, once per candidate; see scanCandidates.
		select {
		case <-done:
			return opts.Ctx.Err()
		default:
		}
		ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		rootID, leafID := src.Root(), src.Leaf()
		if opts.Probe != nil {
			probeMu.Lock()
			opts.Probe.Candidate(rootID - leafID + 1)
			probeMu.Unlock()
		}
		// Gate 1: candidate-level label-histogram bound against the
		// published k-th distance (strict, so exact boundary ties are
		// still evaluated and the distance multiset matches the
		// sequential scan in both tie modes).
		if hist != nil {
			if kth := cut.Load(); !math.IsInf(kth, 1) &&
				float64(src.LabelBound(hist)) > kth {
				if opts.Prune != nil {
					opts.Prune.HistSkipped.Add(1)
				}
				continue
			}
		}
		for rt := rootID; rt >= leafID; {
			lml := src.LMLOf(rt)
			size := rt - lml + 1
			compute := true
			if !opts.DisableIntermediateBound {
				if kth := cut.Load(); !math.IsInf(kth, 1) {
					if strictTies {
						compute = float64(size) <= kth+float64(m)
					} else {
						tauP := math.Min(float64(tau), kth+float64(m))
						compute = float64(size) < tauP
					}
				}
			}
			if compute {
				v := viewPool.Get().(*tree.View) //tasm:allow poolreset — FillView below rebuilds every field of the view before any read
				if err := src.FillView(d, v, lml, rt); err != nil {
					return err
				}
				work <- workItem{view: v, base: posOffset + lml}
				rt = lml - 1
			} else {
				if opts.Probe != nil {
					probeMu.Lock()
					opts.Probe.Pruned(size)
					probeMu.Unlock()
				}
				rt--
			}
		}
	}
}

// sharedRanking guards the global top-k heap.
type sharedRanking struct {
	mu   sync.Mutex
	heap *ranking.Heap
}

// evaluateView runs one TASM-dynamic evaluation on a shipped subtree view
// and pushes the resulting row into the worker's local ranking — no
// shared state is touched. The evaluation is bounded by the tighter of
// the worker's local k-th distance and the published shared one: a
// subtree that can beat neither cannot reach the final top k (the local
// heap already holds k better entries, which all compete at drain).
//
//tasm:hotpath
func evaluateView(comp *ted.Computer, item workItem, local *ranking.Heap, cut *ranking.Cutoff, opts *Options) {
	cutoff := cut.Load()
	if local.Full() && local.Max().Dist < cutoff {
		cutoff = local.Max().Dist
	}
	row := evaluate(comp, item.view, cutoff, opts)
	sizes := item.view.Sizes()
	n := item.view.Size()
	// Materialization gate: the local heap alone would materialize its
	// first k entries even when the shared ranking already holds k far
	// better ones, so the published bound is consulted too. An entry
	// above the published k-th can never be retained at drain time (the
	// shared k-th only tightens); an exact tie still materializes, since
	// it may win its position tie-break.
	pubKth := cut.Load()
	for j := 0; j < n; j++ {
		e := Match{Dist: row[j], Pos: item.base + j, Size: sizes[j]}
		if !opts.NoTrees && e.Dist <= pubKth && local.WouldRetain(e) {
			e.Tree = item.view.Subtree(j) //tasm:allow alloc — match payload materialized only when the candidate enters the top k
		}
		local.Push(e)
	}
}

// lockedProbe serializes probe callbacks from concurrent workers.
type lockedProbe struct {
	p  Probe
	mu *sync.Mutex
}

func (l *lockedProbe) RelevantSubtree(size int) {
	l.mu.Lock()
	l.p.RelevantSubtree(size)
	l.mu.Unlock()
}
