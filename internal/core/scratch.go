package core

import (
	"fmt"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/work"
)

// ScanScratch holds the per-document setup state of TASM-postorder scans
// so a multi-document run builds it once instead of once per document:
// per query the distance computer and label histogram, and the ring
// buffer, column cursor and flat candidate view (their backing arrays only
// ever grow). Each range of a split scan runs on a part, a
// scratch of its own built by the run's first split document and kept
// until Reset, so its memo spans the run. The distance memos outlive
// runs: emptied for the next run's computers instead of allocated again.
// Pass one via Options.Scratch when scanning many documents with the same
// queries, rankings, model, and configuration; the corpus keeps them in a
// sync.Pool, and a tasm.Matcher keeps one for all its runs.
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
	limits  []int32          // the kernel's gate-1 limits, one per state; only ever grows
	tauMax  int              // the largest of the states' τ: what the ring and the cursor enumerate at
	memo    *ted.Memo        // shared by the states' computers; kept across runs
	parts   []*ScanScratch   // the ranges' scratches of a split scan; kept across runs, reset with this one
	view    *tree.View
	buf     *prb.Buffer // a stream's ring, built by its first stream scan
	cur     *prb.Cursor // the kernel's: over a document's columns, or over one stream candidate at a time
	counts  work.Counts // the kernel's counts, reported as each document scan returns
}

// queryState is one query's share of a scan.
type queryState struct {
	q    *tree.Tree
	tau  int // Theorem 3's bound for (q, rank.K())
	comp *ted.Computer
	hist *prb.LabelHist // gate 1's histogram; nil when the gate is off
	rank *ranking.Heap
}

// Reset detaches the scratch and its parts from the previous run's
// queries so the next scan rebuilds the per-query states. The memos,
// ring, cursor and views keep their storage — they carry capacity,
// not identity.
func (s *ScanScratch) Reset() {
	clear(s.queries)
	clear(s.ranks)
	clear(s.states)
	clear(s.hists)
	s.queries, s.ranks, s.states, s.hists, s.tauMax = s.queries[:0], s.ranks[:0], s.states[:0], s.hists[:0], 0
	for _, p := range s.parts {
		p.Reset()
	}
}

// report adds the counts of the scan that just returned to c (nil: drops
// them) and zeroes the scratch's for the next.
func (s *ScanScratch) report(c *work.Counts) {
	if c != nil {
		c.Add(s.counts)
	}
	s.counts = work.Counts{}
}

// split returns the parts of a scan split into n ranges, pointed at the
// run's queries with one ranking of their own per query. Each starts the
// document as a copy of the run's ranking, so a range prunes against the
// earlier documents' results merged with its own, as the sequential scan
// does, and publishes to the run's cutoff (attached first where there is
// none), so the ranges prune against each other's results too.
func (s *ScanScratch) split(n int, opts *Options) ([]*ScanScratch, error) {
	for _, r := range s.ranks {
		if r.CutoffPublisher() == nil {
			r.PublishTo(ranking.NewCutoff())
		}
	}
	for len(s.parts) < n {
		s.parts = append(s.parts, new(ScanScratch))
	}
	for _, p := range s.parts[:n] {
		ranks := p.ranks
		if len(ranks) == 0 {
			ranks = make([]*ranking.Heap, len(s.ranks))
			for q, r := range s.ranks {
				ranks[q] = ranking.New(r.K())
				ranks[q].PublishTo(r.CutoffPublisher())
			}
		}
		o := *opts
		o.Scratch = p
		if _, err := o.scratch(s.queries, ranks); err != nil {
			return nil, err
		}
		for q, r := range ranks {
			r.Merge(s.ranks[q])
		}
	}
	return s.parts[:n], nil
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

// fill copies a window of the document — labels interned in d — into the
// scratch's view and builds it, counting the fill: the one place a scan
// fills a view.
//
//tasm:hotpath
func (s *ScanScratch) fill(d dict.Dict, labels, sizes []int32) error {
	s.counts.ViewFills++
	ls, ss := s.view.Reset(d, len(labels))
	for j, l := range labels {
		ls[j] = int(l)
	}
	for j, z := range sizes {
		ss[j] = int(z)
	}
	return s.view.Build()
}

// scratch is the per-scan setup: it points the scan scratch — the
// caller's, or a fresh one — at the run's queries and rankings. The
// per-query states (τ, computer, histogram) are rebuilt only when this
// exact (queries, rankings) combination hasn't been seen — once per run;
// the cursor and the view only ever grow.
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
		if sc.memo != nil {
			sc.memo.Reset()
		}
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
				comp: ted.NewComputerWith(model, q, &sc.memo),
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
		if cap(sc.limits) < len(sc.states) {
			sc.limits = make([]int32, len(sc.states))
		}
	}
	for i := range sc.states {
		sc.states[i].comp.SetProbe(o.Probe) // nil clears a probe from a previous run
	}
	if sc.view == nil {
		sc.view, sc.cur = &tree.View{}, new(prb.Cursor)
	}
	return sc, nil
}
