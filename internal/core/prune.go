package core

import (
	"math"

	"tasm/internal/ted"
	"tasm/internal/tree"
	"tasm/internal/work"
)

// evaluate is the one place a scan starts a TASM-dynamic evaluation of a filled view: bounded by
// cutoff, the caller's current k-th distance bound (+Inf while there is
// none), unless the early-abort ablation flag makes every evaluation
// unbounded, with the outcome counted in c. The returned row is valid
// until the computer's next evaluation.
//
//tasm:hotpath
func evaluate(comp *ted.Computer, view *tree.View, cutoff float64, opts *Options, c *work.Counts) []float64 {
	if opts.DisableEarlyAbort {
		cutoff = math.Inf(1)
	}
	row, outcome, memoHit := comp.EvaluateView(view, cutoff)
	if memoHit {
		c.TEDMemoHits++
	}
	switch outcome {
	case ted.Completed:
		c.Evaluated++
	case ted.Gated:
		c.TEDGated++
		c.TEDAborted++
	case ted.Aborted:
		c.TEDAborted++
	}
	return row
}
