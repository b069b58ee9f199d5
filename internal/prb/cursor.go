package prb

import (
	"fmt"
	"slices"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// Cursor enumerates the candidate set cand(T, τ) of a document held as
// resident postorder columns — the same set, in the same document order,
// that Buffer produces from a stream, with the same read interface (Next,
// Root, Leaf, LMLOf, LabelBound, FillView), so the scan kernels run over
// either.
//
// The ring buffer exists because a stream can only be dequeued. With the
// size column addressable there is nothing to buffer: walking right to
// left from the last node, a node of size ≤ τ is a candidate root — every
// node the walk has stepped over instead of jumping is an ancestor larger
// than τ, and those are all its ancestors — and the walk jumps over its
// whole subtree; a node larger than τ is stepped over to its last child,
// the node just before it. The walk touches only candidate roots and
// nodes larger than τ, never the inside of a candidate, and visiting the
// roots it found in reverse is document order.
//
// With the candidates known up front, the label-histogram bound of every
// candidate is computed at Reset too, per histogram, in one pass over the
// document (see gate.go), so LabelBound is a load.
//
// A Cursor is owned by one scan goroutine; Reset re-points it, keeping
// the root and bound scratch, which only ever grow.
type Cursor struct {
	cols   *postorder.Columns
	labels []int32
	sizes  []int32
	roots  []int32 // candidate root ids, in document order
	cur    int     // index of the pending candidate in roots; the next is cur+1
	// bounds holds row q — one bound per candidate — for the q-th
	// histogram Reset was given, at [q·len(roots), (q+1)·len(roots)).
	bounds   []int32
	postings int // rows the last Reset filled from the label postings
}

// NewCursor returns a cursor that enumerates the candidates of cols at
// size threshold tau ≥ 1, bounding none.
func NewCursor(cols *postorder.Columns, tau int) *Cursor {
	c := new(Cursor)
	c.Reset(cols, tau, nil, nil)
	return c
}

// Reset points the cursor at a document and threshold, locates its
// candidates, and bounds every candidate against every histogram of
// hists: LabelBound(q, …) then answers for hists[q]. labelNodes, when
// non-nil, holds per histogram the number of the document's nodes that
// carry one of its query's labels, from which each histogram's route is
// chosen (readPostings); nil walks every one. The counts only steer the
// choice — both routes compute the bounds from the columns — so a wrong
// count costs time, never a wrong bound. Reset allocates only to grow its
// scratch.
func (c *Cursor) Reset(cols *postorder.Columns, tau int, hists []*LabelHist, labelNodes []int) {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	c.cols, c.labels, c.sizes = cols, cols.Labels(), cols.Sizes()
	roots, covered := c.roots[:0], 0 // covered: the nodes a walk reads
	for i := len(c.sizes); i > 0; {
		if s := int(c.sizes[i-1]); s <= tau {
			roots = append(roots, int32(i))
			covered += s
			i -= s
		} else {
			i--
		}
	}
	slices.Reverse(roots)
	c.roots, c.cur = roots, -1

	n := len(roots)
	if need := len(hists) * n; cap(c.bounds) < need {
		c.bounds = make([]int32, need)
	}
	c.bounds = c.bounds[:len(hists)*n]
	c.postings = 0
	for q, h := range hists {
		row := c.bounds[q*n : (q+1)*n]
		if labelNodes != nil && readPostings(labelNodes[q], covered) {
			c.postingBounds(h, row)
			c.postings++
		} else {
			c.walkBounds(h, row)
		}
	}
}

// PostingRows reports how many of the histograms given to the last Reset
// had their bounds read from the label postings; the others walked the
// label column.
func (c *Cursor) PostingRows() int { return c.postings }

// Next advances to the next candidate in document order and reports
// whether there is one. The error is always nil — columns are validated
// when built — and is returned only to share Buffer.Next's signature.
//
//tasm:hotpath
func (c *Cursor) Next() (bool, error) {
	if c.cur+1 >= len(c.roots) {
		return false, nil
	}
	c.cur++
	return true, nil
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

// FillView fills v with the subtree spanning nodes from..to (inclusive,
// 1-based document postorder ids), whose labels resolve in d: two column
// slices widened into the view. Allocation-free once v has grown.
//
//tasm:hotpath
func (c *Cursor) FillView(d dict.Dict, v *tree.View, from, to int) error {
	labels, sizes := v.Reset(d, to-from+1)
	for j, l := range c.labels[from-1 : to] {
		labels[j] = int(l)
	}
	for j, s := range c.sizes[from-1 : to] {
		sizes[j] = int(s)
	}
	return v.Build()
}
