package core

import (
	"tasm/internal/postorder"
	"tasm/internal/prb"
	"tasm/internal/ranking"
	"tasm/internal/ted"
	"tasm/internal/tree"
)

// ScanScratch holds the per-document setup state of TASM-postorder scans
// so a multi-document run builds it once instead of once per document:
// the distance computer and label histogram (per query), and the
// candidate source and flat candidate view (per document size class —
// their backing arrays only ever grow). Pass one via Options.Scratch when
// scanning many documents with the same query, model, and configuration;
// the corpus keeps them in a sync.Pool, one per worker.
//
// A scratch is NOT safe for concurrent use, and the query-derived state
// is keyed by query identity: call Reset before a run whose query,
// model, or cost bound may differ from the previous run's — a pooled
// scratch could otherwise alias a freed query tree whose address was
// reused. Within one run, consecutive documents reuse everything.
type ScanScratch struct {
	q    *tree.Tree // the query comp and hist were built for
	comp *ted.Computer
	hist *prb.LabelHist
	view *tree.View
	sources
}

// sources holds a scratch's two candidate sources, each built on first
// use and re-pointed in place at every later document.
type sources struct {
	buf *prb.Buffer
	cur *prb.Cursor
}

// ring points the scratch's ring buffer at a document stream.
func (s *sources) ring(docQ postorder.Queue, tau int) *prb.Buffer {
	if s.buf == nil {
		s.buf = prb.New(docQ, tau)
	} else {
		s.buf.Reset(docQ, tau)
	}
	return s.buf
}

// cursor points the scratch's column cursor at a resident document.
func (s *sources) cursor(cols *postorder.Columns, tau int) *prb.Cursor {
	if s.cur == nil {
		s.cur = prb.NewCursor(cols, tau)
	} else {
		s.cur.Reset(cols, tau)
	}
	return s.cur
}

// Reset detaches the scratch from the previous run's query so the next
// scan rebuilds the query-derived state. The candidate sources and view
// keep their grown backing arrays — they carry capacity, not identity.
func (s *ScanScratch) Reset() {
	s.q = nil
	s.comp = nil
	s.hist = nil
}

// BatchScratch is ScanScratch's counterpart for batch scans: the
// per-query states are keyed by the exact (queries, rankings) pair of
// the run, so consecutive documents of one PostorderBatchInto run reuse
// them while any other combination rebuilds. Same contracts as
// ScanScratch: not concurrency-safe, Reset between runs whose
// configuration may differ.
type BatchScratch struct {
	queries []*tree.Tree
	ranks   []*ranking.Heap
	states  []*batchState
	tauMax  int
	view    *tree.View
	sources
}

// Reset detaches the scratch from the previous run's queries.
func (s *BatchScratch) Reset() {
	s.queries = s.queries[:0]
	s.ranks = s.ranks[:0]
	s.states = s.states[:0]
	s.tauMax = 0
}

// matches reports whether the scratch's states were built for exactly
// this run: same queries and same rankings, element-identical.
func (s *BatchScratch) matches(queries []*tree.Tree, ranks []*ranking.Heap) bool {
	if len(s.queries) != len(queries) || len(s.ranks) != len(ranks) {
		return false
	}
	for i := range queries {
		if s.queries[i] != queries[i] {
			return false
		}
	}
	for i := range ranks {
		if s.ranks[i] != ranks[i] {
			return false
		}
	}
	return true
}

// batchState is one query's slice of the batch scan state; see
// batchScan.
type batchState struct {
	q    *tree.Tree
	tau  int
	comp *ted.Computer
	rank *ranking.Heap
	hist *prb.LabelHist
}
