package core

import (
	"fmt"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// ScanScratch holds the per-document setup state of TASM-postorder scans
// so a multi-document run builds it once instead of once per document:
// per query the distance computer and label histogram, the worker pool's
// computers, and per document size class the candidate sources and flat
// candidate view (their backing arrays only ever grow). The distance
// memos outlive runs: one shared by the states' computers and one per
// worker, emptied for the next run's computers instead of allocated again.
// Pass one via Options.Scratch when scanning many documents with the same
// queries, rankings, model, and configuration; the corpus keeps them in a
// sync.Pool.
//
// A scratch is NOT safe for concurrent use, and the per-query states are
// keyed by the identity of the run's (queries, rankings): call Reset
// before a run whose queries, model, or cost bound may differ from the
// previous run's — a pooled scratch could otherwise alias a freed query
// tree whose address was reused. Within one run, consecutive documents
// reuse everything.
type ScanScratch struct {
	queries []*tree.Tree
	ranks   []*ranking.Heap
	states  []queryState
	hists   []*prb.LabelHist // the states' gate-1 histograms, in order; empty when the gate is off
	tauMax  int              // the largest of the states' τ: what the sources enumerate at
	workers []*ted.Computer  // the worker pool's computers, one per worker, for the run's single query
	memos   []*ted.Memo      // memos[0] shared by the states' computers, memos[1+w] worker w's; kept across runs
	view    *tree.View
	buf     *prb.Buffer
	cur     *prb.Cursor
	tally   tally // the kernel's counts, flushed as each document scan returns
}

// queryState is one query's share of a scan.
type queryState struct {
	q    *tree.Tree
	tau  int // Theorem 3's bound for (q, rank.K())
	comp *ted.Computer
	hist *prb.LabelHist // gate 1's histogram; nil when the gate is off
	rank *ranking.Heap
}

// bound returns the k-th distance the query's gates prune against. Behind
// a worker pool only the lock-free published bound may be read — the
// ranking itself is the workers' to mutate, under the pool's lock. It may
// lag merges still in flight, but it only ever tightens, so a stale read
// merely evaluates a subtree a fresher bound would have skipped.
//
//tasm:hotpath
func (st *queryState) bound(pool *workerPool) float64 {
	if pool != nil {
		return pool.cut.Load()
	}
	return st.rank.KthBound()
}

// Reset detaches the scratch from the previous run's queries so the next
// scan rebuilds the per-query states and worker computers. The memos,
// candidate sources and view keep their storage — they carry capacity,
// not identity.
func (s *ScanScratch) Reset() {
	clear(s.queries)
	clear(s.ranks)
	clear(s.states)
	clear(s.hists)
	clear(s.workers)
	s.queries, s.ranks, s.states, s.hists, s.workers, s.tauMax = s.queries[:0], s.ranks[:0], s.states[:0], s.hists[:0], s.workers[:0], 0
}

// memo returns the i-th memo of the scratch, emptied for new computers.
func (s *ScanScratch) memo(i int) **ted.Memo {
	for len(s.memos) <= i {
		s.memos = append(s.memos, nil)
	}
	if s.memos[i] != nil {
		s.memos[i].Reset()
	}
	return &s.memos[i]
}

// workerComputers returns the computers of a pool of n workers for the
// run's single query, built by the first document scan that asks for them
// and kept for the later ones, so a worker's memo spans the whole run.
func (s *ScanScratch) workerComputers(n int, model cost.Model) []*ted.Computer {
	for len(s.workers) < n {
		s.workers = append(s.workers, ted.NewComputerWith(model, s.states[0].q, s.memo(1+len(s.workers))))
	}
	return s.workers[:n]
}

// matches reports whether the scratch's states were built for exactly
// this run: same queries and same rankings, element-identical.
func (s *ScanScratch) matches(queries []*tree.Tree, ranks []*ranking.Heap) bool {
	if len(s.queries) != len(queries) || len(s.ranks) != len(ranks) {
		return false
	}
	for i := range queries {
		if s.queries[i] != queries[i] || s.ranks[i] != ranks[i] {
			return false
		}
	}
	return true
}

// ring points the scratch's ring buffer at a document stream.
func (s *ScanScratch) ring(docQ postorder.Queue) *prb.Buffer {
	if s.buf == nil {
		s.buf = prb.New(docQ, s.tauMax)
	} else {
		s.buf.Reset(docQ, s.tauMax)
	}
	return s.buf
}

// cursor points the scratch's column cursor at a resident document, every
// candidate bounded against every query's histogram; see prb.Cursor.Reset
// for labelNodes.
func (s *ScanScratch) cursor(cols *postorder.Columns, labelNodes []int) *prb.Cursor {
	if s.cur == nil {
		s.cur = new(prb.Cursor)
	}
	s.cur.Reset(cols, s.tauMax, s.hists, labelNodes)
	return s.cur
}

// scratch is the per-scan setup: it points the scan scratch — the
// caller's, or a fresh one — at the run's queries and rankings. The
// per-query states (τ, computer, histogram) are rebuilt only when this
// exact (queries, rankings) combination hasn't been seen — once per run;
// the view only ever grows.
func (o *Options) scratch(queries []*tree.Tree, ranks []*ranking.Heap) (*ScanScratch, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("tasm: batch needs at least one query")
	}
	if len(ranks) != len(queries) {
		return nil, fmt.Errorf("tasm: %d queries but %d rankings", len(queries), len(ranks))
	}
	sc := o.Scratch
	if sc == nil {
		sc = new(ScanScratch)
	}
	if !sc.matches(queries, ranks) {
		sc.Reset()
		model, memo := o.model(), sc.memo(0)
		for i, q := range queries {
			err := validate(q, ranks[i].K())
			if err == nil && !dict.Compatible(q.Dict(), queries[0].Dict()) {
				err = fmt.Errorf("tasm: query uses a dictionary incompatible with the first query's")
			}
			if err == nil {
				err = cost.Validate(model, q)
			}
			if err != nil {
				// A partial build leaves the key empty: the next scan rebuilds.
				if len(queries) > 1 {
					err = fmt.Errorf("query %d: %w", i, err)
				}
				return nil, err
			}
			st := queryState{
				q:    q,
				tau:  Tau(model, q, ranks[i].K(), o.CT),
				comp: ted.NewComputerWith(model, q, memo),
				rank: ranks[i],
			}
			if !o.DisableHistogramBound {
				st.hist = st.comp.LabelHist()
				sc.hists = append(sc.hists, st.hist)
			}
			sc.states = append(sc.states, st)
			sc.tauMax = max(sc.tauMax, st.tau)
		}
		sc.queries = append(sc.queries, queries...)
		sc.ranks = append(sc.ranks, ranks...)
	}
	for i := range sc.states {
		sc.states[i].comp.SetProbe(o.Probe) // nil clears a probe from a previous run
	}
	if sc.view == nil {
		sc.view = &tree.View{}
	}
	return sc, nil
}
