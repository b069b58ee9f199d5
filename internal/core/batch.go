package core

import (
	"fmt"
	"math"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// PostorderBatch answers several TASM queries in a single postorder scan
// of the document — the batch workload of data cleaning, where a whole
// set of dirty records is matched against one large corpus.
//
// The scan uses one prefix ring buffer sized for the largest query bound
// τmax. This is correct because candidate sets are nested: every subtree
// within a smaller query's bound τi lies inside some cand(T, τmax)
// subtree (its ancestors above that candidate exceed τmax ≥ τi), so the
// τi-candidates can be recovered locally from each materialized
// τmax-candidate. Each query then runs Algorithm 3's inner loop, with its
// own τi and its own intermediate bound τ′i, against the shared
// candidates.
//
// Compared to q independent scans, the document is parsed and pruned
// once; the TED work is the same as q sequential runs (it is per-query by
// nature). Results for each query are identical to PostorderStream's.
func PostorderBatch(queries []*tree.Tree, docQ postorder.Queue, k int, opts Options) ([][]Match, error) {
	if k < 1 {
		return nil, fmt.Errorf("tasm: k must be ≥ 1, got %d", k)
	}
	ranks := make([]*ranking.Heap, len(queries))
	for i := range ranks {
		ranks[i] = ranking.New(k)
	}
	if err := batchScan(queries, docQ, ranks, 0, false, opts); err != nil {
		return nil, err
	}
	out := make([][]Match, len(ranks))
	for i, r := range ranks {
		out[i] = r.Sorted()
	}
	return out, nil
}

// PostorderBatchInto runs the batch scan of PostorderBatch over one
// document stream, pushing each query's matches into its existing ranking
// ranks[i] with every reported position offset by posOffset. It is the
// corpus building block for batch serving: scanning several documents
// into per-query shared rankings lets each query's running k-th distance
// from earlier documents tighten its τ′ bound in later ones, while the
// document itself is read and pruned once for the whole batch.
//
// Like PostorderStreamInto, pruning uses the order-independent strict
// margin, so the final rankings are identical regardless of document scan
// order.
func PostorderBatchInto(queries []*tree.Tree, docQ postorder.Queue, ranks []*ranking.Heap, posOffset int, opts Options) error {
	return batchScan(queries, docQ, ranks, posOffset, true, opts)
}

// PostorderBatchColumnsInto is PostorderBatchInto for a document held as
// resident postorder columns; see PostorderColumnsInto.
func PostorderBatchColumnsInto(queries []*tree.Tree, cols *postorder.Columns, ranks []*ranking.Heap, posOffset int, opts Options) error {
	sc, err := opts.batchScratch(queries, ranks)
	if err != nil {
		return err
	}
	return batchCandidates(sc.cursor(cols, sc.tauMax), sc, posOffset, true, &opts)
}

// batchScan is the shared body of PostorderBatch and PostorderBatchInto;
// see postorderScan for the strictTies contract.
func batchScan(queries []*tree.Tree, docQ postorder.Queue, ranks []*ranking.Heap, posOffset int, strictTies bool, opts Options) error {
	if docQ == nil {
		return fmt.Errorf("tasm: document queue must not be nil")
	}
	sc, err := opts.batchScratch(queries, ranks)
	if err != nil {
		return err
	}
	return batchCandidates(sc.ring(docQ, sc.tauMax), sc, posOffset, strictTies, &opts)
}

// batchScratch is the per-scan setup of the batch kernel, as seqScratch
// is of the sequential one: the per-query states are rebuilt only when
// this exact (queries, rankings) combination hasn't been seen — once per
// run.
func (o *Options) batchScratch(queries []*tree.Tree, ranks []*ranking.Heap) (*BatchScratch, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("tasm: batch needs at least one query")
	}
	if len(ranks) != len(queries) {
		return nil, fmt.Errorf("tasm: %d queries but %d rankings", len(queries), len(ranks))
	}
	sc := o.BatchScratch
	if sc == nil {
		sc = new(BatchScratch)
	}
	if !sc.matches(queries, ranks) {
		model := o.model()
		d := queries[0].Dict()
		states := make([]*batchState, len(queries))
		tauMax := 0
		for i, q := range queries {
			if err := validate(q, ranks[i].K()); err != nil {
				return nil, fmt.Errorf("query %d: %w", i, err)
			}
			if !dict.Compatible(q.Dict(), d) {
				return nil, fmt.Errorf("tasm: query %d uses an incompatible dictionary", i)
			}
			tau, err := o.tau(q, ranks[i].K())
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", i, err)
			}
			st := &batchState{
				q:    q,
				tau:  tau,
				comp: ted.NewComputer(model, q),
				rank: ranks[i],
			}
			if !o.DisableHistogramBound {
				st.hist = st.comp.LabelHist()
			}
			if st.tau > tauMax {
				tauMax = st.tau
			}
			states[i] = st
		}
		sc.queries = append(sc.queries[:0], queries...)
		sc.ranks = append(sc.ranks[:0], ranks...)
		sc.states = states
		sc.tauMax = tauMax
	}
	for _, st := range sc.states {
		st.comp.SetProbe(o.Probe) // nil clears a probe from a previous run
	}
	if sc.view == nil {
		sc.view = &tree.View{}
	}
	return sc, nil
}

// batchCandidates is the batch kernel: one pass over the candidates src
// yields at the batch's largest τ, each offered to every query behind
// that query's own histogram gate.
//
//tasm:hotpath
func batchCandidates(src candidateSource, sc *BatchScratch, posOffset int, strictTies bool, opts *Options) error {
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
			break
		}
		if opts.Probe != nil {
			opts.Probe.Candidate(src.Root() - src.Leaf() + 1)
		}
		for _, st := range sc.states {
			// Gate 1 per query: the candidate's label histogram bounds the
			// distance of every subtree within it from below; a ranking
			// whose k-th distance bound is already smaller makes this
			// candidate irrelevant for this query.
			if st.hist != nil {
				if kth := st.rank.KthBound(); !math.IsInf(kth, 1) &&
					float64(src.LabelBound(st.hist)) > kth {
					if opts.Prune != nil {
						opts.Prune.HistSkipped.Add(1)
					}
					continue
				}
			}
			if err := rankWithin(st, src, sc.view, posOffset, strictTies, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

// rankWithin runs the inner loop of Algorithm 3 for one query over the
// shared candidate pending in src: the maximal subtrees within the
// query's own τ are located inside the candidate (they are the query's
// candidate set restricted to this region), copied into the recycled flat
// view, and each ranked with one TASM-dynamic evaluation, subject to the
// query's intermediate bound. The view resolves labels in the query's own
// dictionary, so the distance computer stays on its aliasing fast path
// for every query of the batch.
//
//tasm:hotpath
func rankWithin(st *batchState, src candidateSource, view *tree.View, posOffset int, strictTies bool, opts *Options) error {
	r, tau := st.rank, st.tau
	m := st.q.Size()
	d := st.q.Dict()
	leafID := src.Leaf()
	for rt := src.Root(); rt >= leafID; {
		lml := src.LMLOf(rt)
		size := rt - lml + 1
		// Descend until the subtree fits this query's τ.
		if size > tau {
			rt--
			continue
		}
		kth := r.KthBound()
		compute := true
		if !math.IsInf(kth, 1) && !opts.DisableIntermediateBound {
			if strictTies {
				// Order-independent margin: skip only subtrees whose
				// distance lower bound size−|Q| strictly exceeds the
				// current k-th distance (see PostorderStreamInto).
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
			// Gate 2: bounded evaluation against this query's running k-th
			// distance bound; see scanCandidates.
			row := evaluate(st.comp, view, kth, opts)
			sizes := view.Sizes()
			for j := 0; j < size; j++ {
				e := Match{Dist: row[j], Pos: posOffset + lml + j, Size: sizes[j]}
				if !opts.NoTrees && r.WouldRetain(e) {
					e.Tree = view.Subtree(j) //tasm:allow alloc — match payload materialized only when the candidate enters the top k
				}
				r.Push(e)
			}
			rt = lml - 1
		} else {
			if opts.Probe != nil {
				opts.Probe.Pruned(size)
			}
			rt--
		}
	}
	return nil
}
