// Package core implements the TASM algorithms of the paper: the naive
// per-subtree baseline, TASM-dynamic (Section IV-F, the prior state of the
// art), and TASM-postorder (Section VI, Algorithm 3 — the paper's
// contribution), which combines the τ size bound of Theorem 3 with the
// prefix ring buffer of Section V to answer top-k approximate subtree
// matching queries in a single postorder scan of the document with memory
// independent of the document size.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/work"
)

// Match is one ranked subtree of the document.
type Match = ranking.Entry

// Probe receives instrumentation callbacks from TASM runs. It reproduces
// the measurements behind Figures 11 and 12 of the paper (number and sizes
// of the relevant subtrees for which prefix distances are evaluated) and
// the candidate statistics of Section V. A nil Probe disables
// instrumentation.
type Probe interface {
	ted.Probe
	// Candidate is called by TASM-postorder for every candidate subtree
	// produced by the prefix ring buffer, with its size.
	Candidate(size int)
	// Pruned is called by TASM-postorder for every subtree skipped by the
	// τ′ intermediate-ranking bound (Algorithm 3, line 16), with its size.
	Pruned(size int)
}

// Options configures a TASM run.
type Options struct {
	// Model is the node cost model; nil means the unit cost model.
	Model cost.Model
	// Ctx carries cancellation and deadline for the scan; nil means
	// context.Background(). The scan polls it once per visited candidate
	// (a non-blocking channel read, no allocation) — a column scan steps
	// over runs of candidates the histogram gate rejects between polls, a
	// bounded loop over one document's bounds — so a cancelled request
	// stops mid-scan promptly and returns ctx.Err() without breaking the
	// zero-allocations-per-candidate invariant.
	Ctx context.Context
	// CT overrides cT, the bound on document node costs used in
	// τ = |Q|·(cQ+1) + k·cT. Zero means Model.DocBound(). For
	// memory-resident documents the exact maximum is used instead when
	// it is smaller.
	CT float64
	// Probe receives instrumentation callbacks; nil disables them. A
	// column scan split into ranges (workers ≠ 0) calls it from several
	// goroutines at once.
	Probe Probe
	// NoTrees suppresses materialization of matched subtrees in the
	// results (Match.Tree stays nil); benchmarks use it to measure the
	// algorithms rather than result construction.
	NoTrees bool
	// DisableIntermediateBound switches off the τ′ = min(τ, max(R)+|Q|)
	// pruning of Algorithm 3 (Lemma 4), leaving only the static Theorem 3
	// bound τ. Results are unchanged; it exists to measure how much of
	// TASM-postorder's win comes from the dynamic bound (ablation).
	DisableIntermediateBound bool
	// DisableHistogramBound switches off the first gate of the candidate
	// pruning pipeline: the sliding label-histogram lower bound that
	// skips a whole candidate when the number of query labels missing
	// from it already exceeds the running k-th distance. Results are
	// unchanged; it exists for ablation and benchmarking.
	DisableHistogramBound bool
	// DisableEarlyAbort switches off the second gate — every rung of the
	// bounded Zhang–Shasha evaluation at once (view label bag, row
	// minimum; see ted.EvaluateView): each evaluation is the unbounded
	// DP. Results are unchanged; it exists for ablation and benchmarking.
	DisableEarlyAbort bool
	// Prune, when non-nil, receives the scan's work counts: a document
	// scan adds its own when it returns, on the calling goroutine (a
	// split scan sums its ranges' first), so a corpus run reads a
	// document's share off a Counts of its own.
	Prune *work.Counts
	// Scratch, when non-nil, supplies reusable per-document scan state, so
	// a run over many documents builds its distance computers, histograms,
	// cursor (and, for streams, ring buffer), and candidate view once
	// instead of once per document. See ScanScratch for the reuse
	// contract. Nil means fresh state per call (the single-document
	// behavior).
	Scratch *ScanScratch
}

func (o *Options) model() cost.Model {
	if o.Model == nil {
		return cost.Unit{}
	}
	return o.Model
}

// validate checks the common query/k preconditions.
func validate(q *tree.Tree, k int) error {
	if q == nil || q.Size() == 0 {
		return fmt.Errorf("tasm: query must be a non-empty tree")
	}
	if k < 1 {
		return fmt.Errorf("tasm: k must be ≥ 1, got %d", k)
	}
	return nil
}

// Tau returns the paper's upper bound τ = |Q|·(cQ+1) + k·cT (Theorem 3) on
// the size of any subtree that can appear in the final top-k ranking,
// rounded down to an integer node count. With the unit cost model this is
// 2·|Q| + k.
func Tau(m cost.Model, q *tree.Tree, k int, ct float64) int {
	cq := cost.MaxCost(m, q)
	if ct <= 0 {
		ct = m.DocBound()
	}
	return int(math.Floor(float64(q.Size())*(cq+1) + float64(k)*ct))
}

// Naive solves TASM by computing δ(Q, T_j) independently for every subtree
// T_j of the document: the O(m²n²)-time strawman of Section I. It exists
// as a correctness oracle and as the baseline the complexity discussion
// starts from; use Dynamic or Postorder for real workloads.
func Naive(q, doc *tree.Tree, k int, opts Options) ([]Match, error) {
	if err := validate(q, k); err != nil {
		return nil, err
	}
	if doc == nil || doc.Size() == 0 {
		return nil, fmt.Errorf("tasm: document must be a non-empty tree")
	}
	comp := ted.NewComputer(opts.model(), q)
	if opts.Probe != nil {
		comp.SetProbe(opts.Probe)
	}
	r := ranking.New(k)
	for j := 0; j < doc.Size(); j++ {
		sub := doc.Subtree(j)
		e := Match{Dist: comp.Distance(sub), Pos: j + 1, Size: sub.Size()}
		if !opts.NoTrees {
			e.Tree = sub
		}
		r.Push(e)
	}
	return r.Sorted(), nil
}

// Dynamic solves TASM with the TASM-dynamic algorithm of Section IV-F: one
// Zhang–Shasha run of query against the whole document fills the tree
// distance matrix, whose last row holds δ(Q, T_j) for every subtree T_j;
// the k smallest entries form the ranking. Time O(m²n) for shallow
// documents, but space O(m·n): the document (and a matrix larger than it)
// must be memory-resident, which is the scalability wall TASM-postorder
// removes.
func Dynamic(q, doc *tree.Tree, k int, opts Options) ([]Match, error) {
	if err := validate(q, k); err != nil {
		return nil, err
	}
	if doc == nil || doc.Size() == 0 {
		return nil, fmt.Errorf("tasm: document must be a non-empty tree")
	}
	comp := ted.NewComputer(opts.model(), q)
	if opts.Probe != nil {
		comp.SetProbe(opts.Probe)
	}
	row := comp.SubtreeDistances(doc)
	r := ranking.New(k)
	for j := 0; j < doc.Size(); j++ {
		r.Push(Match{Dist: row[j], Pos: j + 1, Size: doc.SubtreeSize(j)})
	}
	out := r.Sorted()
	if !opts.NoTrees {
		for i := range out {
			out[i].Tree = doc.Subtree(out[i].Pos - 1)
		}
	}
	return out, nil
}

// Postorder solves TASM with TASM-postorder (Algorithm 3) on a
// memory-resident document by streaming its postorder queue. The document
// tree itself is only used to derive the stream and to materialize the
// matched subtrees; see PostorderStream for the pure streaming form.
func Postorder(q, doc *tree.Tree, k int, opts Options) ([]Match, error) {
	if doc == nil || doc.Size() == 0 {
		return nil, fmt.Errorf("tasm: document must be a non-empty tree")
	}
	if q != nil && !dict.Compatible(q.Dict(), doc.Dict()) {
		// The streaming scan compares interned label ids; ids from
		// incompatible dictionaries are incommensurable. A query interned
		// through an overlay over the document's dictionary is fine — its
		// ids extend the document's. (Dynamic and Naive fall back to
		// string comparison, but silent divergence between the algorithms
		// would be worse than an error.)
		return nil, fmt.Errorf("tasm: query and document use incompatible label dictionaries; parse both through one Matcher or an overlay over its dictionary")
	}
	// With the document in memory the exact maximum node cost is
	// available; use it when tighter than the model's a priori bound.
	if opts.CT == 0 {
		opts.CT = cost.MaxCost(opts.model(), doc)
		if b := opts.model().DocBound(); b < opts.CT {
			opts.CT = b
		}
	}
	return PostorderStream(q, postorder.FromTree(doc), k, opts)
}

// PostorderStream solves TASM with TASM-postorder (Algorithm 3) over a
// document given only as a postorder queue. Space is O(m²·cQ + m·k·cT) —
// independent of the document size (Theorem 5) — and time is O(m²·n).
//
// The queue must encode a single well-formed tree (Definition 2). The
// scan returns an error for a node whose subtree size lies outside
// 1..its position, and for a node of size ≤ τ whose subtree does not nest
// in the nodes before it (its children do not tile it exactly). It
// cannot see, in memory bounded by τ, a node larger than τ that splits an
// earlier subtree, nor a forest of several roots, which is ranked as if
// the roots were siblings — use postorder.Validate when the source is
// untrusted.
//
// The candidate subtrees within the τ bound of Theorem 3 are enumerated by
// the prefix ring buffer; each candidate's subtrees are traversed in
// reverse postorder, skipping those at or above the intermediate-ranking
// bound τ′ = min(τ, max(R)+|Q|) (Lemma 4), and ranked with one
// TASM-dynamic evaluation per retained subtree.
//
// The queue's item labels must be interned in the query's dictionary;
// the scan compares label identifiers, not strings.
func PostorderStream(q *tree.Tree, docQ postorder.Queue, k int, opts Options) ([]Match, error) {
	return first(streamBatch([]*tree.Tree{q}, docQ, k, opts))
}

// PostorderBatch answers several TASM queries in a single postorder scan
// of the document — the batch workload of data cleaning, where a whole
// set of dirty records is matched against one large corpus.
//
// The scan enumerates candidates once, at the largest query bound τmax.
// This is correct because candidate sets are nested: every subtree within
// a smaller query's bound τi lies inside some cand(T, τmax) subtree (its
// ancestors above that candidate exceed τmax ≥ τi), so the τi-candidates
// are recovered locally from each τmax-candidate. Each query then runs
// Algorithm 3's inner loop, with its own τi and its own intermediate
// bound τ′i, against the shared candidates.
//
// Compared to q independent scans, the document is parsed and pruned
// once; the TED work is the same as q sequential runs (it is per-query by
// nature). Results for each query are identical to PostorderStream's,
// which is this function for a batch of one.
func PostorderBatch(queries []*tree.Tree, docQ postorder.Queue, k int, opts Options) ([][]Match, error) {
	return streamBatch(queries, docQ, k, opts)
}

// streamBatch is the single-document scan behind PostorderStream and
// PostorderBatch: fresh rankings of k, the paper's tie boundary,
// positions from 1.
func streamBatch(queries []*tree.Tree, docQ postorder.Queue, k int, opts Options) ([][]Match, error) {
	if k < 1 {
		return nil, fmt.Errorf("tasm: k must be ≥ 1, got %d", k)
	}
	ranks := make([]*ranking.Heap, len(queries))
	for i := range ranks {
		ranks[i] = ranking.New(k)
	}
	if err := streamScan(queries, docQ, ranks, 0, false, opts); err != nil {
		return nil, err
	}
	out := make([][]Match, len(ranks))
	for i, r := range ranks {
		out[i] = r.Sorted()
	}
	return out, nil
}

// first unwraps the answer of a batch of one.
func first(results [][]Match, err error) ([]Match, error) {
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// PostorderStreamInto runs TASM-postorder for one query over one document
// stream, pushing its matches into the existing ranking r with every
// reported position offset by posOffset, under the strict-tie margin
// documented on PostorderBatchColumnsInto. Corpus documents are scanned
// as columns, so bench/layers.go, which times it against its replica of
// the scan loop, is its only caller outside tests.
func PostorderStreamInto(q *tree.Tree, docQ postorder.Queue, r *ranking.Heap, posOffset int, opts Options) error {
	queries, ranks := [1]*tree.Tree{q}, [1]*ranking.Heap{r}
	return streamScan(queries[:], docQ, ranks[:], posOffset, true, opts)
}

// PostorderBatchColumnsInto runs TASM-postorder over one document held as
// resident postorder columns for every query at once, pushing query i's
// matches into its existing ranking ranks[i] with every reported position
// offset by posOffset. It is the corpus building block: scanning several
// documents into shared rankings lets the running k-th distance of earlier
// documents tighten the τ′ bound of later ones (Lemma 4 applied across
// document boundaries), while each document is read and pruned once for
// the whole batch.
//
// workers = 0 scans on the calling goroutine; otherwise (< 0: GOMAXPROCS)
// the candidates are split into ranges scanned concurrently, which
// cooperate as documents of a corpus do (see scanRanges).
//
// Because documents may be scanned in any order (e.g. most-promising
// first) while ties are broken by the offset position, the τ′ pruning is
// applied with a strict margin: a subtree is skipped only when its
// distance provably exceeds — not merely matches — the current k-th
// distance. The final rankings are therefore identical to scanning every
// document with unbounded shared heaps, regardless of scan order — and,
// with workers, regardless of how the ranges interleave.
//
// The kernel is the stream scan's, with the same counters and result
// bytes, but it runs once over every candidate, found by index arithmetic
// over the size column (prb.Cursor), instead of once per candidate a ring
// buffer fed node by node yields, and the label-histogram gate bounds
// every candidate before the scan starts.
//
// cache, when non-nil, is the document's prb.CandidateCache, which keeps
// its candidates per τ across scans, so that a scan at a τ it holds
// neither locates the candidates nor walks their labels where the label
// postings are few. A scan whose τ finds every slot taken runs as with no
// cache and is counted in its CandidateSetMisses.
//
// labelNodes, when non-nil, holds per query the number of the document's
// nodes that carry one of the query's labels — a corpus plan reads it off
// the document's label profile — and lets the gate read the label
// postings through the cached set instead of walking the label column
// where they are few; nil walks. Neither steers more than speed: results
// are the same for any value.
func PostorderBatchColumnsInto(queries []*tree.Tree, cols *postorder.Columns, cache *prb.CandidateCache, labelNodes []int, ranks []*ranking.Heap, posOffset, workers int, opts Options) error {
	sc, err := opts.scratch(queries, ranks)
	if err != nil {
		return err
	}
	if labelNodes != nil && len(labelNodes) != len(queries) {
		return fmt.Errorf("tasm: %d queries but %d label-node counts", len(queries), len(labelNodes))
	}
	defer sc.report(opts.Prune)
	cur := sc.cur
	cur.Reset(cols, cache, sc.tauMax, sc.hists, labelNodes)
	if cur.Missed() {
		sc.counts.CandidateSetMisses++
	}
	if workers == 0 {
		return scanCandidates(cur, sc, posOffset, true, &opts)
	}
	return scanRanges(cur, sc, posOffset, posOffset+cols.Len(), workers, opts)
}

// rangeChunks is how many chunks of candidates each range of a split scan
// claims on average, so that no range is left alone with a costly tail.
const rangeChunks = 4

// scanRanges is the split form of a column scan: workers goroutines (< 0:
// GOMAXPROCS), never more than there are candidates, claim fixed chunks of
// the cursor's candidates in document order through one counter and run
// the unchanged kernel over each on a part of sc (see ScanScratch.split).
// The ranges cooperate through the cutoffs of the caller's rankings, under
// the strict margin that makes the outcome independent of how they
// interleave; once all have returned, each part drains the document's
// entries, at positions (posOffset, last], into the caller's rankings. The
// first range to fail stops the claims; the first error in range order is
// returned. opts is the split's own copy, which the goroutines share, so
// only a scan that splits pays for options that outlive the call.
func scanRanges(cur *prb.Cursor, sc *ScanScratch, posOffset, last, workers int, opts Options) error {
	n := cur.Candidates()
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers == 0 {
		return scanCandidates(cur, sc, posOffset, true, &opts) // no candidate: only the ctx poll
	}
	parts, err := sc.split(workers, &opts)
	if err != nil {
		return err
	}
	chunk := (n + rangeChunks*workers - 1) / (rangeChunks * workers)
	var next atomic.Int64
	errs := make([]error, workers)
	scan := func(i int) {
		p := parts[i]
		for {
			lo := int(next.Add(1)-1) * chunk
			if lo >= n {
				return
			}
			*p.cur = cur.Range(lo, min(lo+chunk, n))
			if errs[i] = scanCandidates(p.cur, p, posOffset, true, &opts); errs[i] != nil {
				next.Store(int64(n)) // nothing left to claim
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			scan(i)
		}()
	}
	scan(0)
	wg.Wait()
	for _, p := range parts {
		p.report(&sc.counts)
		for i, r := range p.ranks {
			sc.ranks[i].Drain(r, posOffset+1, last)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// streamScan is the shared body of the stream entry points: the prefix
// ring buffer fed by docQ (Algorithm 2) yields each candidate, which is
// copied out once (Buffer.Window) and scanned by the kernel as a document
// of one candidate (Cursor.ResetWindow) at its own position offset, so a
// stream holds the ring and one window of at most τ nodes. strictTies
// selects the order-independent pruning margin documented on
// PostorderBatchColumnsInto; the plain single-document forms keep the
// paper's τ′ = min(τ, max(R)+|Q|) boundary, which is safe there because
// positions grow monotonically within one scan. A stream can only be
// dequeued in order, so its scan is sequential.
func streamScan(queries []*tree.Tree, docQ postorder.Queue, ranks []*ranking.Heap, posOffset int, strictTies bool, opts Options) error {
	if docQ == nil {
		return fmt.Errorf("tasm: document queue must not be nil")
	}
	sc, err := opts.scratch(queries, ranks)
	if err != nil {
		return err
	}
	defer sc.report(opts.Prune)
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return opts.Ctx.Err() // before the stream is touched; the kernel polls once per candidate
	}
	if sc.buf == nil {
		sc.buf = new(prb.Buffer)
	}
	sc.buf.Reset(docQ, sc.tauMax)
	defer sc.buf.Reset(nil, sc.tauMax) // a kept scratch must not keep the stream, and what it reads, alive
	return scanStream(sc.buf, sc, posOffset, strictTies, &opts)
}

// scanStream is streamScan's loop: the kernel over each candidate buf
// yields, as a document of one candidate at the candidate's position.
//
//tasm:hotpath
func scanStream(buf *prb.Buffer, sc *ScanScratch, posOffset int, strictTies bool, opts *Options) error {
	for {
		ok, err := buf.Next()
		if !ok || err != nil {
			return err
		}
		leaf := buf.Leaf()
		labels, sizes := buf.Window(leaf, buf.Root())
		sc.cur.ResetWindow(labels, sizes, sc.hists)
		if err := scanCandidates(sc.cur, sc, posOffset+leaf-1, strictTies, opts); err != nil {
			return err
		}
	}
}

// scanCandidates is the kernel: Algorithm 3's loop over the candidates
// cur yields at the scan's largest τ — a resident document's, or one
// candidate of a stream (streamScan) — each offered to every query of
// sc.states behind that query's own pruning pipeline; a filled view is
// evaluated and ranked in place.
//
//tasm:hotpath
func scanCandidates(cur *prb.Cursor, sc *ScanScratch, posOffset int, strictTies bool, opts *Options) error {
	var done <-chan struct{} // nil without a context: never ready
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	// Gate 1 is applied to runs of candidates before any is visited
	// (cur.Skip), unless a probe must see every candidate; with the gate off
	// there are no bounds.
	skip := opts.Probe == nil && len(sc.hists) > 0
	limits := sc.limits[:len(sc.states)]
	for {
		// Cancellation poll, once per visited candidate: a non-blocking read
		// of the context's done channel (nil — never ready — without a
		// context), so a cancelled request abandons the scan mid-document.
		// A skipped run is a bounded loop over one document's candidates.
		select {
		case <-done:
			return opts.Ctx.Err()
		default:
		}
		if skip {
			// Step over the following candidates gate 1 rejects for every
			// query: the integer form of its test below, against the same
			// k-th bounds, which in a sequential scan move only when it
			// pushes. A bound a cooperating scan tightens after it is read
			// here only ends the run early; the test below still runs on
			// every visited candidate.
			for i := range sc.states {
				limits[i] = gateLimit(sc.states[i].rank.KthBound())
			}
			n := cur.Skip(limits)
			sc.counts.Candidates += uint64(n)
			sc.counts.HistSkipped += uint64(n * len(sc.states))
		}
		if !cur.Next() {
			return nil
		}
		sc.counts.Candidates++
		rootID, leafID := cur.Root(), cur.Leaf()
		if opts.Probe != nil {
			opts.Probe.Candidate(rootID - leafID + 1)
		}
		for i := range sc.states {
			st := &sc.states[i]
			// The bound every gate prunes against: the ranking's own k-th
			// distance, tightened through its cutoff publisher by any
			// cooperating scans (other documents of a corpus run, other shards
			// of a scatter-gather group, other ranges of a split document) that
			// share the publisher.
			kth := st.rank.KthBound()
			// Gate 1: the label histogram yields a lower bound on the
			// distance of EVERY subtree of the candidate (their label bags are
			// sub-bags of the candidate's). If it strictly exceeds the current
			// k-th distance, no subtree here can enter this query's ranking —
			// skip the candidate without filling a view or touching the DP.
			// Strict comparison keeps exact boundary ties evaluated, so
			// results stay byte-identical in both tie-handling modes.
			if st.hist != nil && !math.IsInf(kth, 1) && float64(cur.LabelBound(i)) > kth {
				sc.counts.HistSkipped++
				continue
			}
			m := st.q.Size()
			// Traverse the subtrees of the candidate in reverse postorder
			// (Algorithm 3, lines 8–18).
			for rt := rootID; rt >= leafID; {
				lml := cur.LMLOf(rt)
				size := rt - lml + 1
				// Descend until the subtree fits this query's own τ; never
				// taken by the query whose τ sized the candidates — a single
				// query's, always.
				if size > st.tau {
					rt--
					continue
				}
				kth = st.rank.KthBound()
				// τ′ tightens τ once an intermediate ranking exists
				// (Lemma 4): subtrees of size ≥ max(R)+|Q| cannot improve it.
				compute := true
				if !math.IsInf(kth, 1) && !opts.DisableIntermediateBound {
					if strictTies {
						// Order-independent margin: skip only subtrees whose
						// distance lower bound size−|Q| strictly exceeds the
						// current k-th distance, so an exact tie that would win
						// its position tie-break is never discarded.
						compute = float64(size) <= kth+float64(m)
					} else {
						tauP := math.Min(float64(st.tau), kth+float64(m))
						compute = float64(size) < tauP
					}
				}
				if !compute {
					if opts.Probe != nil {
						opts.Probe.Pruned(size)
					}
					rt-- // descend to the next subtree in reverse postorder
					continue
				}
				// Gate 2: the evaluation is bounded by the current k-th
				// distance — distances at or below it stay exact, anything
				// above comes back +Inf, which the heap rejects just like the
				// true value.
				labels, sizes := cur.Window(lml, rt)
				if err := rankWindow(st, sc, labels, sizes, posOffset+lml, kth, opts); err != nil {
					return err
				}
				rt = lml - 1 // skip everything just ranked
			}
		}
	}
}

// gateLimit is a k-th distance bound as the integer limit gate 1 skips
// above: an integer bound exceeds kth exactly when it exceeds ⌊kth⌋, and
// none exceeds math.MaxInt32, the limit of an open ranking (+Inf).
//
//tasm:hotpath
func gateLimit(kth float64) int32 {
	if kth < math.MaxInt32 {
		return int32(kth) // the floor: distances are never negative
	}
	return math.MaxInt32
}

// rankWindow is TASM-dynamic on one subtree of a candidate, given by its
// labels and sizes (Cursor.Window): the last row of the tree distance
// matrix, bounded by cutoff, ranks every subtree of the window at once
// into st's ranking, the window's first node reported at position base.
// The probe (ted.ProbeWindow) reads the window where it lies; only when
// it leaves the evaluation open is the window filled into sc.view and
// built for the dynamic program. A gated window pushes nothing, as a
// candidate gate 1 skips pushes nothing: its row is all +Inf, which a
// full ranking rejects, and a ranking that is not full has its finite
// bound from a cooperating scan, whose k entries at or below it outrank
// every +Inf one in the merge. A memo hit pushes its stored row. A
// match's tree is materialized only when the ranking would retain it,
// from the view, filled first if the dynamic program did not need it.
// The evaluation is counted in sc.counts.
//
//tasm:hotpath
func rankWindow(st *queryState, sc *ScanScratch, labels, sizes []int32, base int, cutoff float64, opts *Options) error {
	if opts.DisableEarlyAbort {
		cutoff = math.Inf(1)
	}
	r := st.rank
	p := ted.ProbeWindow(st.comp, labels, sizes, cutoff)
	row, filled := p.Row, false
	switch {
	case p.Outcome == ted.Gated:
		count(&sc.counts, ted.Gated, false)
		return nil
	case p.MemoHit:
		count(&sc.counts, p.Outcome, true)
	default:
		if err := sc.fill(st.q.Dict(), labels, sizes); err != nil {
			return err
		}
		var outcome ted.Outcome
		row, outcome = st.comp.Run(&p, sc.view)
		filled = true
		count(&sc.counts, outcome, false)
	}
	for j, size := range sizes {
		e := Match{Dist: row[j], Pos: base + j, Size: int(size)}
		if !opts.NoTrees && r.WouldRetain(e) {
			if !filled {
				if err := sc.fill(st.q.Dict(), labels, sizes); err != nil {
					return err
				}
				filled = true
			}
			e.Tree = sc.view.Subtree(j) //tasm:allow alloc — match payload materialized only when the candidate enters the top k
		}
		r.Push(e)
	}
	return nil
}
