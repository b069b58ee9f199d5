package prb

import (
	"fmt"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// Cursor enumerates the candidate set cand(T, τ) of a document held as
// resident postorder columns — the same set, in the same document order,
// that Buffer produces from a stream, with the same read interface (Next,
// Root, Leaf, LMLOf, FillView), so the scan kernels run over either.
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
// A Cursor is owned by one scan goroutine; Reset re-points it, keeping
// the root scratch, which only ever grows.
type Cursor struct {
	labels []int32
	sizes  []int32
	roots  []int32 // candidate root ids, right to left
	next   int     // roots[:next] are still to be visited, last first
	root   int     // pending candidate's root id, 1-based
}

// NewCursor returns a cursor over cols with size threshold tau ≥ 1.
func NewCursor(cols *postorder.Columns, tau int) *Cursor {
	c := new(Cursor)
	c.Reset(cols, tau)
	return c
}

// Reset points the cursor at a document and threshold and locates its
// candidates.
func (c *Cursor) Reset(cols *postorder.Columns, tau int) {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	c.labels, c.sizes = cols.Labels(), cols.Sizes()
	roots := c.roots[:0]
	for i := len(c.sizes); i > 0; {
		if s := int(c.sizes[i-1]); s <= tau {
			roots = append(roots, int32(i))
			i -= s
		} else {
			i--
		}
	}
	c.roots = roots
	c.next = len(roots)
	c.root = 0
}

// Next advances to the next candidate in document order and reports
// whether there is one. The error is always nil — columns are validated
// when built — and is returned only to share Buffer.Next's signature.
//
//tasm:hotpath
func (c *Cursor) Next() (bool, error) {
	if c.next == 0 {
		return false, nil
	}
	c.next--
	c.root = int(c.roots[c.next])
	return true, nil
}

// Root returns the 1-based postorder id of the current candidate's root.
//
//tasm:hotpath
func (c *Cursor) Root() int { return c.root }

// Leaf returns the 1-based postorder id of the current candidate's
// leftmost leaf.
//
//tasm:hotpath
func (c *Cursor) Leaf() int { return c.LMLOf(c.root) }

// LMLOf returns the leftmost leaf id of node id.
//
//tasm:hotpath
func (c *Cursor) LMLOf(id int) int { return id - int(c.sizes[id-1]) + 1 }

// LabelBound returns h's lower bound for the current candidate, read
// straight off the label column.
//
//tasm:hotpath
func (c *Cursor) LabelBound(h *LabelHist) int {
	return h.Bound(c.labels[c.Leaf()-1 : c.root])
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
