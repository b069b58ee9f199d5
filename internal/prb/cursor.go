package prb

import (
	"fmt"

	"tasm/internal/postorder"
)

// Cursor enumerates the candidate set cand(T, τ) of a document held as
// resident postorder columns — the same set, in the same document order,
// that Buffer produces from a stream — and serves the reads of the scan
// kernel (Next, Skip, Root, Leaf, LMLOf, LabelBound, Window), which runs
// over nothing else.
//
// The ring buffer exists because a stream can only be dequeued. With the
// size column addressable there is nothing to buffer: the candidate roots
// are found by a walk over the size column that touches only the roots
// and the nodes larger than τ (locate), or read from the document's
// CandidateCache, which keeps them — and which candidate holds each node —
// per τ. A stream reaches the kernel one candidate at a time: the ring
// yields it, Buffer.Window copies it out, and ResetWindow points the
// cursor at the copy as a document of one candidate.
//
// With the candidates known up front, the label-histogram bound of every
// candidate is computed at Reset too, per histogram, in one pass over the
// document (see gate.go), so LabelBound is a load, and Skip steps over a
// run of candidates every histogram gates without visiting them.
//
// A Cursor is owned by one scan goroutine; Reset and ResetWindow re-point
// it, keeping the root and bound scratch, which only ever grow.
type Cursor struct {
	cols   *postorder.Columns // nil after ResetWindow
	labels []int32
	sizes  []int32
	roots  []int32 // candidate root ids, in document order: own, or a cached set's
	own    []int32 // the roots a Reset without a cached set locates; never a set's
	cur    int     // index of the pending candidate in roots; the next is cur+1
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
// hists: LabelBound(q) then answers for hists[q].
//
// cache, when non-nil, is the document's CandidateCache: the candidates
// are read from its set at tau, built there first if a slot is free. When
// every slot holds another τ the cursor locates the candidates itself, as
// with no cache, and Missed reports it.
//
// labelNodes, when non-nil, holds per histogram the number of the
// document's nodes that carry one of its query's labels, from which each
// histogram's route is chosen (readPostings): the postings, each found in
// its candidate by two loads of the cached set's node map, or the walk
// over the label column. nil, or no cached set, walks every one. The
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
	c.rows(len(hists))
	n := len(c.roots)
	for q, h := range hists {
		row := c.bounds[q*n : (q+1)*n]
		if set != nil && labelNodes != nil && readPostings(labelNodes[q], covered) {
			c.mapBounds(h, row, set)
			c.postings++
		} else {
			c.walkBounds(h, row)
		}
	}
}

// ResetWindow points the cursor at one subtree given as its labels and
// subtree sizes in postorder — a stream's candidate, copied out of the
// ring buffer by Buffer.Window — as a document of one candidate, whose
// node ids are the window's, 1 to len(labels), and bounds it against
// every histogram of hists by walking its labels. The sizes must nest,
// the last node being the root of them all, as Buffer.Next makes sure of
// for every candidate it yields. The cursor reads the slices until its
// next reset. ResetWindow allocates only to grow its scratch.
//
//tasm:hotpath
func (c *Cursor) ResetWindow(labels, sizes []int32, hists []*LabelHist) {
	c.cols, c.labels, c.sizes = nil, labels, sizes
	c.own = grow(c.own, 1)
	c.own[0] = int32(len(labels))
	c.roots, c.missed = c.own, false
	c.rows(len(hists))
	for q, h := range hists {
		c.walkBounds(h, c.bounds[q:q+1])
	}
}

// rows rewinds the cursor to before its first candidate and sizes its
// bounds for the given number of histograms, one row of len(roots) each.
//
//tasm:hotpath
func (c *Cursor) rows(hists int) {
	c.cur = -1
	c.bounds = grow(c.bounds, hists*len(c.roots))
	c.postings = 0
}

// grow returns s resized to n, reallocated only when n exceeds its
// capacity.
//
//tasm:hotpath
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n) //tasm:allow alloc — grow-only scratch: reallocates only when n exceeds every prior size
	}
	return s[:n]
}

// PostingRows reports how many of the histograms given to the last Reset
// had their bounds read from the label postings; the others walked the
// label column.
func (c *Cursor) PostingRows() int { return c.postings }

// Missed reports whether the last Reset was given a cache whose slots all
// held another τ, so that it located and bounded the candidates as with
// no cache.
func (c *Cursor) Missed() bool { return c.missed }

// Next advances to the next candidate in document order and reports
// whether there is one.
//
//tasm:hotpath
func (c *Cursor) Next() bool {
	if c.cur+1 >= len(c.roots) {
		return false
	}
	c.cur++
	return true
}

// Skip steps over the candidates after the pending one whose bound
// against the q-th histogram Reset was given exceeds limits[q] for every
// q — one limit per histogram; bounds are integers, so a limit is the
// floor of a k-th distance, and math.MaxInt32 gates nothing — and returns
// how many it stepped over. It stops before the first candidate some
// histogram admits or after the last candidate, so the next Next visits
// that candidate or reports the end.
//
//tasm:hotpath
func (c *Cursor) Skip(limits []int32) int {
	from, n := c.cur+1, len(c.roots)
	j := from
	if len(limits) == 1 {
		row, limit := c.bounds[:n], limits[0]
		for j < len(row) && row[j] > limit {
			j++
		}
	} else {
	runs:
		for ; j < n; j++ {
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
// q-th histogram the last reset was given, computed there.
//
//tasm:hotpath
func (c *Cursor) LabelBound(q int) int {
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
