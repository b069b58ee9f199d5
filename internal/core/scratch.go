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
// per query the distance computer and label histogram, and per document
// size class the candidate sources and flat candidate view (their backing
// arrays only ever grow). Pass one via Options.Scratch when scanning many
// documents with the same queries, rankings, model, and configuration;
// the corpus keeps them in a sync.Pool.
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
	tauMax  int // the largest of the states' τ: what the sources enumerate at
	view    *tree.View
	buf     *prb.Buffer
	cur     *prb.Cursor
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
// scan rebuilds the per-query states. The candidate sources and view keep
// their grown backing arrays — they carry capacity, not identity.
func (s *ScanScratch) Reset() {
	clear(s.queries)
	clear(s.ranks)
	clear(s.states)
	s.queries, s.ranks, s.states, s.tauMax = s.queries[:0], s.ranks[:0], s.states[:0], 0
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

// cursor points the scratch's column cursor at a resident document.
func (s *ScanScratch) cursor(cols *postorder.Columns) *prb.Cursor {
	if s.cur == nil {
		s.cur = prb.NewCursor(cols, s.tauMax)
	} else {
		s.cur.Reset(cols, s.tauMax)
	}
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
		model := o.model()
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
				comp: ted.NewComputer(model, q),
				rank: ranks[i],
			}
			if !o.DisableHistogramBound {
				st.hist = st.comp.LabelHist()
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
