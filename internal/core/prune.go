package core

import (
	"tasm/internal/ted"
	"tasm/internal/work"
)

// count records one started TASM-dynamic evaluation in c by the way it
// ended, and whether the memo answered it.
//
//tasm:hotpath
func count(c *work.Counts, outcome ted.Outcome, memoHit bool) {
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
}
