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

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
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
	// context.Background(). The scan polls it once per candidate (a
	// non-blocking channel read, no allocation), so a cancelled request
	// stops mid-scan promptly and returns ctx.Err() without breaking the
	// zero-allocations-per-candidate invariant.
	Ctx context.Context
	// CT overrides cT, the bound on document node costs used in
	// τ = |Q|·(cQ+1) + k·cT. Zero means Model.DocBound(). For
	// memory-resident documents the exact maximum is used instead when
	// it is smaller.
	CT float64
	// Probe receives instrumentation callbacks; nil disables them.
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
	// Prune, when non-nil, receives the pruning pipeline's counters.
	Prune *PruneStats
	// Scratch, when non-nil, supplies reusable per-document scan state to
	// PostorderStream/PostorderStreamInto/PostorderColumnsInto, so a run
	// over many documents builds its distance computer, histogram,
	// candidate source, and candidate view once instead of once per
	// document. See ScanScratch for the reuse contract. Nil means fresh
	// state per call (the single-document behavior).
	Scratch *ScanScratch
	// BatchScratch is Scratch's counterpart for PostorderBatch/
	// PostorderBatchInto/PostorderBatchColumnsInto.
	BatchScratch *BatchScratch
}

func (o *Options) model() cost.Model {
	if o.Model == nil {
		return cost.Unit{}
	}
	return o.Model
}

// done returns the run's cancellation channel, nil when no context was
// supplied (a nil channel never becomes ready, so the per-candidate poll
// degenerates to the select's default branch).
func (o *Options) done() <-chan struct{} {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Done()
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
// The queue must encode a single well-formed tree (Definition 2).
// Inconsistent subtree sizes are detected during the scan and returned as
// errors; a stream encoding a forest of several roots is not detectable
// in one pass and is ranked as if the roots were siblings — use
// postorder.Validate when the source is untrusted.
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
	if err := validate(q, k); err != nil {
		return nil, err
	}
	r := ranking.New(k)
	if err := postorderScan(q, docQ, r, 0, false, opts); err != nil {
		return nil, err
	}
	return r.Sorted(), nil
}

// PostorderStreamInto runs TASM-postorder over one document stream,
// pushing matches into an existing ranking r with every reported position
// offset by posOffset. It is the corpus building block: scanning several
// documents into one shared ranking lets the running k-th distance of
// earlier documents tighten the τ′ bound of later ones (Lemma 4 applied
// across document boundaries).
//
// Because documents may be scanned in any order (e.g. most-promising
// first) while ties are broken by the offset position, the τ′ pruning is
// applied with a strict margin: a subtree is skipped only when its
// distance provably exceeds — not merely matches — the current k-th
// distance. The final ranking is therefore identical to scanning every
// document with an unbounded shared heap, regardless of scan order.
func PostorderStreamInto(q *tree.Tree, docQ postorder.Queue, r *ranking.Heap, posOffset int, opts Options) error {
	if err := validate(q, r.K()); err != nil {
		return err
	}
	return postorderScan(q, docQ, r, posOffset, true, opts)
}

// PostorderColumnsInto is PostorderStreamInto (workers == 0) or
// PostorderParallelInto (workers ≠ 0) for a document held as resident
// postorder columns: the same kernels, the same strict-margin pruning, the
// same counters and result bytes, but the candidates come from index
// arithmetic over the size column (prb.Cursor) instead of a ring buffer
// fed node by node. The corpus scans every cached document this way.
func PostorderColumnsInto(q *tree.Tree, cols *postorder.Columns, r *ranking.Heap, posOffset, workers int, opts Options) error {
	if err := validate(q, r.K()); err != nil {
		return err
	}
	if workers != 0 {
		tau, err := opts.tau(q, r.K())
		if err != nil {
			return err
		}
		return parallelScan(q, prb.NewCursor(cols, tau), tau, r, posOffset, workers, true, opts)
	}
	sc, tau, err := opts.seqScratch(q, r.K())
	if err != nil {
		return err
	}
	return scanCandidates(sc.cursor(cols, tau), sc, tau, r, posOffset, true, &opts)
}

// candidateSource enumerates cand(T, τ) of one document in document
// postorder and serves reads of the pending candidate. The scan kernels
// are written against it once and run over either implementation:
// *prb.Buffer when the document is a stream, *prb.Cursor when it is
// resident columns.
type candidateSource interface {
	// Next advances to the next candidate; false with a nil error after
	// the last one.
	Next() (bool, error)
	// Root and Leaf return the candidate's root and leftmost leaf as
	// 1-based document postorder ids.
	Root() int
	Leaf() int
	// LMLOf returns the leftmost leaf of a node inside the candidate.
	LMLOf(id int) int
	// LabelBound returns h's lower bound on the distance of every subtree
	// of the candidate.
	LabelBound(h *prb.LabelHist) int
	// FillView copies the subtree spanning nodes from..to into v.
	FillView(d dict.Dict, v *tree.View, from, to int) error
}

// tau validates the cost model against q and returns the Theorem 3 bound
// for a ranking of k — the setup every scan starts with.
func (o *Options) tau(q *tree.Tree, k int) (int, error) {
	model := o.model()
	if err := cost.Validate(model, q); err != nil {
		return 0, err
	}
	return Tau(model, q, k, o.CT), nil
}

// seqScratch is the per-scan setup of the sequential kernel: it resolves
// τ and points the scan scratch — the caller's, or a fresh one — at q.
// The computer and histogram are rebuilt only when the query changes
// (once per run); the view only ever grows.
func (o *Options) seqScratch(q *tree.Tree, k int) (*ScanScratch, int, error) {
	tau, err := o.tau(q, k)
	if err != nil {
		return nil, 0, err
	}
	sc := o.Scratch
	if sc == nil {
		sc = new(ScanScratch)
	}
	if sc.q != q {
		sc.q = q
		sc.comp = ted.NewComputer(o.model(), q)
		sc.hist = nil
	}
	sc.comp.SetProbe(o.Probe) // nil clears a probe from a previous run
	if sc.view == nil {
		sc.view = &tree.View{}
	}
	if sc.hist == nil && !o.DisableHistogramBound {
		sc.hist = sc.comp.LabelHist()
	}
	return sc, tau, nil
}

// postorderScan is the shared body of PostorderStream and
// PostorderStreamInto: Algorithm 3 over one postorder queue, ranking into
// r. strictTies selects the order-independent pruning margin documented on
// PostorderStreamInto; the plain single-document form keeps the paper's
// τ′ = min(τ, max(R)+|Q|) boundary, which is safe there because positions
// grow monotonically within one scan.
func postorderScan(q *tree.Tree, docQ postorder.Queue, r *ranking.Heap, posOffset int, strictTies bool, opts Options) error {
	if docQ == nil {
		return fmt.Errorf("tasm: document queue must not be nil")
	}
	sc, tau, err := opts.seqScratch(q, r.K())
	if err != nil {
		return err
	}
	return scanCandidates(sc.ring(docQ, tau), sc, tau, r, posOffset, strictTies, &opts)
}

// scanCandidates is the sequential kernel: Algorithm 3's loop over the
// candidates src yields, with the pruning pipeline in front of each
// evaluation. sc carries the query's computer, histogram and view, set up
// by seqScratch.
//
//tasm:hotpath
func scanCandidates(src candidateSource, sc *ScanScratch, tau int, r *ranking.Heap, posOffset int, strictTies bool, opts *Options) error {
	m := sc.q.Size()
	d := sc.q.Dict()
	comp, view := sc.comp, sc.view
	var hist *prb.LabelHist
	if !opts.DisableHistogramBound {
		// The bound slides the window on and fully off again, so the
		// histogram's state is identical before and after each candidate —
		// reuse across documents is safe.
		hist = sc.hist
	}
	done := opts.done()

	for {
		// Cancellation poll, once per candidate: a non-blocking read of the
		// context's done channel (nil — never ready — without a context),
		// so a cancelled request abandons the scan mid-document.
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
			break
		}
		rootID, leafID := src.Root(), src.Leaf()
		if opts.Probe != nil {
			opts.Probe.Candidate(rootID - leafID + 1)
		}
		// The bound every gate prunes against: the ranking's own k-th
		// distance, tightened through its cutoff publisher by any
		// cooperating scans (other documents of a corpus run, other shards
		// of a scatter-gather group) that share the publisher.
		kth := r.KthBound()
		// Gate 1: the label histogram yields a lower bound on the
		// distance of EVERY subtree of the candidate (their label bags are
		// sub-bags of the candidate's). If it strictly exceeds the current
		// k-th distance, no subtree here can enter the ranking — skip the
		// candidate without filling a view or touching the DP. Strict
		// comparison keeps exact boundary ties evaluated, so results stay
		// byte-identical in both tie-handling modes.
		if hist != nil && !math.IsInf(kth, 1) {
			if float64(src.LabelBound(hist)) > kth {
				if opts.Prune != nil {
					opts.Prune.HistSkipped.Add(1)
				}
				continue
			}
		}
		// Traverse the subtrees of the candidate in reverse postorder
		// (Algorithm 3, lines 8–18).
		for rt := rootID; rt >= leafID; {
			lml := src.LMLOf(rt)
			size := rt - lml + 1
			kth = r.KthBound()
			// τ′ tightens τ once an intermediate ranking exists
			// (Lemma 4): subtrees of size ≥ max(R)+|Q| cannot improve it.
			compute := true
			if !math.IsInf(kth, 1) && !opts.DisableIntermediateBound {
				if strictTies {
					// Order-independent margin: skip only subtrees whose
					// distance lower bound size−|Q| strictly exceeds the
					// current k-th distance, so an exact tie that would win
					// its position tie-break is never discarded. The static
					// τ cut is already enforced by the candidate source.
					compute = float64(size) <= kth+float64(m)
				} else {
					tauP := math.Min(float64(tau), kth+float64(m))
					compute = float64(size) < tauP
				}
			}
			if compute {
				if err := src.FillView(d, view, lml, rt); err != nil {
					return err
				}
				// TASM-dynamic on the subtree: the last row of the tree
				// distance matrix ranks every subtree of the view at once.
				// Gate 2: with a full ranking the evaluation is bounded by
				// the current k-th distance — distances at or below it stay
				// exact, anything above comes back +Inf, which the heap
				// rejects just like the true value.
				row := evaluate(comp, view, kth, opts)
				sizes := view.Sizes()
				for j := 0; j < size; j++ {
					e := Match{Dist: row[j], Pos: posOffset + lml + j, Size: sizes[j]}
					if !opts.NoTrees && r.WouldRetain(e) {
						e.Tree = view.Subtree(j) //tasm:allow alloc — match payload materialized only when the candidate enters the top k
					}
					r.Push(e)
				}
				rt = lml - 1 // skip everything just ranked
			} else {
				if opts.Probe != nil {
					opts.Probe.Pruned(size)
				}
				rt-- // descend to the next subtree in reverse postorder
			}
		}
	}
	return nil
}
