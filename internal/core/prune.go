package core

import (
	"math"
	"sync/atomic"

	"tasm/internal/ted"
	"tasm/internal/tree"
)

// PruneStats counts what the candidate pruning pipeline did during a
// scan: how many candidates the label-histogram gate rejected before any
// distance work, and how each evaluation that was started ended — cut
// short by one of the bounded evaluation's rungs (ted.EvaluateView), or
// run to completion. The counters are cumulative across scans sharing the
// struct and safe for concurrent update (each range of a split scan adds
// its share as it finishes a chunk), so one PruneStats can aggregate a
// whole corpus query — or a daemon's lifetime. A document scan has added all of
// its counts by the time it returns, so per-document deltas read around
// one are exact.
type PruneStats struct {
	// HistSkipped is the number of candidate subtrees skipped whole by
	// the histogram-intersection lower bound: no view fill, no TED. The
	// gate runs once per (query, candidate) pair, so one candidate skipped
	// for every query of a Q-query batch adds Q.
	HistSkipped atomic.Uint64
	// TEDAborted is the number of subtree evaluations cut short because a
	// lower bound crossed the cutoff: rejected whole by the label bag of
	// the view (rung 0, also counted in TEDGated) or abandoned inside the
	// DP by the row minimum (rung 1). Evaluated + TEDAborted is the
	// number of evaluations started.
	TEDAborted atomic.Uint64
	// TEDGated is the part of TEDAborted that rung 0 rejected before the
	// DP touched a cell.
	TEDGated atomic.Uint64
	// Evaluated is the number of subtree evaluations that ran to
	// completion (bounded evaluations that no rung ended included).
	Evaluated atomic.Uint64
	// TEDMemoHits is the number of started evaluations answered from the
	// distance computer's memo of already evaluated views instead of a
	// dynamic program. Each is also counted in Evaluated or TEDAborted,
	// under the outcome of the evaluation that computed its row — at a
	// cutoff no tighter than the hit's, so the split between the two can
	// differ from what the dynamic program would have reported, their sum
	// cannot.
	TEDMemoHits atomic.Uint64
}

// Snapshot returns the current counter values (hist-skipped, TED-aborted,
// fully evaluated); TEDGated and TEDMemoHits are read directly.
func (s *PruneStats) Snapshot() (histSkipped, tedAborted, evaluated uint64) {
	return s.HistSkipped.Load(), s.TEDAborted.Load(), s.Evaluated.Load()
}

// tally is one scan goroutine's private count of the PruneStats counters:
// the kernel counts into its scratch's with plain increments and flushes
// it once, when its pass over a document (or a range of one) returns, so
// an event costs a plain increment instead of a locked read-modify-write.
type tally struct {
	histSkipped, tedAborted, tedGated, evaluated, memoHits uint64
}

// flush adds t to p (nil: discards it) and zeroes t. A zero count is
// not added: a scan of a small document often has several.
func (t *tally) flush(p *PruneStats) {
	if p != nil {
		add(&p.HistSkipped, t.histSkipped)
		add(&p.TEDAborted, t.tedAborted)
		add(&p.TEDGated, t.tedGated)
		add(&p.Evaluated, t.evaluated)
		add(&p.TEDMemoHits, t.memoHits)
	}
	*t = tally{}
}

func add(c *atomic.Uint64, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}

// evaluate is the one place a scan starts a TASM-dynamic evaluation of a filled view: bounded by
// cutoff, the caller's current k-th distance bound (+Inf while there is
// none), unless the early-abort ablation flag makes every evaluation
// unbounded, with the outcome counted in t. The returned row is valid
// until the computer's next evaluation.
//
//tasm:hotpath
func evaluate(comp *ted.Computer, view *tree.View, cutoff float64, opts *Options, t *tally) []float64 {
	if opts.DisableEarlyAbort {
		cutoff = math.Inf(1)
	}
	row, outcome, memoHit := comp.EvaluateView(view, cutoff)
	if memoHit {
		t.memoHits++
	}
	switch outcome {
	case ted.Completed:
		t.evaluated++
	case ted.Gated:
		t.tedGated++
		t.tedAborted++
	case ted.Aborted:
		t.tedAborted++
	}
	return row
}
