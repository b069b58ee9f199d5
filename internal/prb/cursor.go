package prb

import (
	"fmt"

	"tasm/internal/postorder"
)

// Cursor enumerates the candidate set cand(T, τ) of a document held as
// resident postorder columns — the same set, in the same document order,
// that Buffer produces from a stream, with the same read interface (Next,
// Skip, Root, Leaf, LMLOf, LabelBound, Window), so the scan kernels run
// over either.
//
// The ring buffer exists because a stream can only be dequeued. With the
// size column addressable there is nothing to buffer: the candidate roots
// are found by a walk over the size column that touches only the roots
// and the nodes larger than τ (locate), or read from the document's
// CandidateCache, which keeps them — and which candidate holds each node —
// per τ.
//
// With the candidates known up front, the label-histogram bound of every
// candidate is computed at Reset too, per histogram, in one pass over the
// document (see gate.go), so LabelBound is a load, and Skip steps over a
// run of candidates every histogram gates without visiting them.
//
// A Cursor is owned by one scan goroutine; Reset re-points it, keeping
// the root and bound scratch, which only ever grow.
type Cursor struct {
	cols   *postorder.Columns
	labels []int32
	sizes  []int32
	roots  []int32 // candidate root ids, in document order: own, or a cached set's
	own    []int32 // the roots a Reset without a cached set locates; never a set's
	cur    int     // index of the pending candidate in roots; the next is cur+1
	end    int     // index in roots past the cursor's last candidate
	// bounds holds row q — one bound per candidate — for the q-th
	// histogram Reset was given, at [q·len(roots), (q+1)·len(roots)).
	bounds   []int32
	postings int  // rows the last Reset filled from the label postings
	missed   bool // the last Reset found every slot of its cache taken
}

// NewCursor returns a cursor that enumerates the candidates of cols at
// size threshold tau ≥ 1, bounding none.
func NewCursor(cols *postorder.Columns, tau int) *Cursor {
	c := new(Cursor)
	c.Reset(cols, nil, tau, nil, nil)
	return c
}

// Reset points the cursor at a document and threshold, locates its
// candidates, and bounds every candidate against every histogram of
// hists: LabelBound(q, …) then answers for hists[q].
//
// cache, when non-nil, is the document's CandidateCache: the candidates
// are read from its set at tau, built there first if a slot is free. A
// histogram whose route is the postings then finds each posting's
// candidate with two loads of the set's node map. When every slot holds
// another τ the cursor locates the candidates itself and searches the
// candidate roots for the postings, as with no cache, and Missed reports
// it.
//
// labelNodes, when non-nil, holds per histogram the number of the
// document's nodes that carry one of its query's labels, from which each
// histogram's route is chosen (readPostings); nil walks every one. The
// counts only steer the choice — every route computes the bounds from the
// columns — so a wrong count costs time, never a wrong bound. Reset
// allocates only to grow its scratch and to fill a free cache slot.
func (c *Cursor) Reset(cols *postorder.Columns, cache *CandidateCache, tau int, hists []*LabelHist, labelNodes []int) {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	c.cols, c.labels, c.sizes = cols, cols.Labels(), cols.Sizes()
	var set *candidateSet
	if cache != nil {
		set = cache.set(cols, tau, &c.own)
	}
	c.missed = cache != nil && set == nil
	covered := 0 // the nodes a walk reads
	if set != nil {
		c.roots, covered = set.roots, set.covered
	} else {
		c.own, covered = locate(c.own, c.sizes, tau)
		c.roots = c.own
	}
	c.cur, c.end = -1, len(c.roots)

	n := len(c.roots)
	if need := len(hists) * n; cap(c.bounds) < need {
		c.bounds = make([]int32, need)
	}
	c.bounds = c.bounds[:len(hists)*n]
	c.postings = 0
	for q, h := range hists {
		row := c.bounds[q*n : (q+1)*n]
		switch {
		case labelNodes == nil || !readPostings(labelNodes[q], covered):
			c.walkBounds(h, row)
		case set != nil:
			c.mapBounds(h, row, set)
			c.postings++
		default:
			c.postingBounds(h, row)
			c.postings++
		}
	}
}

// Candidates returns the number of candidates the last Reset located.
func (c *Cursor) Candidates() int { return len(c.roots) }

// Range returns a cursor over candidates [lo, hi) of the last Reset,
// bounds included. It shares c's columns, roots and bounds, which no
// range writes, so ranges of one cursor may scan concurrently; it must
// not itself be Reset.
func (c *Cursor) Range(lo, hi int) Cursor {
	r := *c
	r.cur, r.end = lo-1, hi
	return r
}

// PostingRows reports how many of the histograms given to the last Reset
// had their bounds read from the label postings; the others walked the
// label column.
func (c *Cursor) PostingRows() int { return c.postings }

// Missed reports whether the last Reset was given a cache whose slots all
// held another τ, so that it located and bounded the candidates as with
// no cache.
func (c *Cursor) Missed() bool { return c.missed }

// Next advances to the next candidate of the cursor's range in document
// order and reports whether there is one. The error is always nil —
// columns are validated
// when built — and is returned only to share Buffer.Next's signature.
//
//tasm:hotpath
func (c *Cursor) Next() (bool, error) {
	if c.cur+1 >= c.end {
		return false, nil
	}
	c.cur++
	return true, nil
}

// Skip steps over the candidates after the pending one whose bound
// against the q-th histogram Reset was given exceeds limits[q] for every
// q — one limit per histogram; bounds are integers, so a limit is the
// floor of a k-th distance, and math.MaxInt32 gates nothing — and returns
// how many it stepped over. It stops before the first candidate some
// histogram admits or at the end of the cursor's range, so the next Next
// visits that candidate or reports the end.
//
//tasm:hotpath
func (c *Cursor) Skip(limits []int32) int {
	from := c.cur + 1
	j := from
	if len(limits) == 1 {
		row, limit := c.bounds[:c.end], limits[0]
		for j < len(row) && row[j] > limit {
			j++
		}
	} else {
		n := len(c.roots)
	runs:
		for ; j < c.end; j++ {
			for q, limit := range limits {
				if c.bounds[q*n+j] <= limit {
					break runs
				}
			}
		}
	}
	c.cur = j - 1
	return j - from
}

// Root returns the 1-based postorder id of the current candidate's root.
//
//tasm:hotpath
func (c *Cursor) Root() int { return int(c.roots[c.cur]) }

// Leaf returns the 1-based postorder id of the current candidate's
// leftmost leaf.
//
//tasm:hotpath
func (c *Cursor) Leaf() int { return c.LMLOf(c.Root()) }

// LMLOf returns the leftmost leaf id of node id.
//
//tasm:hotpath
func (c *Cursor) LMLOf(id int) int { return id - int(c.sizes[id-1]) + 1 }

// LabelBound returns the lower bound of the current candidate against the
// q-th histogram Reset was given — computed there, so the histogram
// argument, which Buffer needs, is not read.
//
//tasm:hotpath
func (c *Cursor) LabelBound(q int, _ *LabelHist) int {
	return int(c.bounds[q*len(c.roots)+c.cur])
}

// Window returns the labels and subtree sizes of nodes from..to
// (inclusive, 1-based document postorder ids) — a subtree of the current
// candidate — as sub-slices of the document's columns: nothing is copied.
// Inside a subtree a node's size column entry is its size in the subtree,
// so the window is the subtree's postorder arrays as a view holds them.
// The slices must not be written to.
//
//tasm:hotpath
func (c *Cursor) Window(from, to int) (labels, sizes []int32) {
	return c.labels[from-1 : to], c.sizes[from-1 : to]
}
