// Package prb implements the prefix ring buffer of the TASM paper
// (Section V): a fixed-size buffer of τ+1 slots that enumerates the
// candidate set cand(T, τ) — every subtree of size ≤ τ whose proper
// ancestors all exceed τ (Definition 9) — in a single postorder scan of
// the document, using O(τ) space regardless of the document size
// (Theorem 2).
//
// Two synchronized ring arrays realize the buffer, exactly as in the
// paper's Algorithms 1–2: lbl stores node labels and pfx stores the prefix
// array of Definition 10, which encodes the buffered prefix's structure so
// that the leftmost valid subtree is found in constant time. Node
// identifiers are the 1-based postorder positions in the document; node x
// lives in slot x mod (τ+1), so identifiers double as slot addresses.
//
// Prefix array semantics (Definition 10): the entry of a non-leaf node is
// its leftmost leaf lml; the entry of a leaf is the largest buffered
// ancestor of which it is the leftmost leaf (initially the leaf itself).
// Appending a node therefore writes its own entry and, if its subtree is
// within the threshold, redirects the entry of its leftmost leaf to point
// back at it — so a leaf's entry always names the root of the largest
// valid subtree starting at that leaf, and "node is a leaf" is equivalent
// to "entry ≥ own id".
//
// Consumers read the pending candidate either by materializing a
// tree.Tree (Subtree — allocates per call), by copying out the labels and
// sizes of the candidate or one of its subtrees (Window — a copy into
// scratch sized with the ring), or by filling a reusable flat tree.View in
// place (FillView — allocation-free once the view's buffers have grown to
// the candidate sizes of the scan). The buffered nodes stay valid until
// the next call to Next, so one candidate may be read any number of times.
//
// The ring buffer is what a stream needs. A document already resident as
// postorder columns needs no buffer at all: Cursor enumerates the same
// candidate set in the same order by index arithmetic over the size
// column. The scan kernel reads only a Cursor: a stream's scan copies each
// candidate the ring yields out with Window and points a cursor at the
// copy (Cursor.ResetWindow), so a stream costs the ring and one window of
// at most τ nodes.
package prb

import (
	"errors"
	"fmt"
	"io"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// Buffer is a prefix ring buffer scanning one postorder queue. Use Next to
// advance to each candidate subtree in document postorder.
type Buffer struct {
	tau int // size threshold τ ≥ 1
	b   int // ring size b = τ+1

	lbl []int // node labels by slot
	pfx []int // prefix array by slot: 1-based node ids

	s, e int // start slot and one-past-end slot
	c    int // nodes appended so far == postorder id of the newest node

	q    postorder.Queue
	qErr error // sticky non-EOF queue error
	done bool  // queue exhausted

	pending bool // a candidate is at the start, not yet consumed

	scratchL, scratchS []int   // reusable buffers for Subtree
	winL, winS         []int32 // Window's buffers, of the ring's capacity
}

// New returns a prefix ring buffer pruning the document streamed by q with
// size threshold tau ≥ 1.
func New(q postorder.Queue, tau int) *Buffer {
	r := new(Buffer)
	r.Reset(q, tau)
	return r
}

// Reset re-points the buffer at a new postorder queue with threshold tau,
// reusing the ring arrays when they are large enough; New is Reset on an
// empty buffer. The ring contents are never read before being written
// (every node's slots are filled on append), so stale values from the
// previous document are harmless. This is the reuse hook of
// core.ScanScratch, which keeps one buffer and re-points it at every
// stream it scans.
func (r *Buffer) Reset(q postorder.Queue, tau int) {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	b := tau + 1
	if cap(r.lbl) < b {
		r.lbl = make([]int, b)
		r.pfx = make([]int, b)
		r.winL = make([]int32, b)
		r.winS = make([]int32, b)
	} else {
		r.lbl = r.lbl[:b]
		r.pfx = r.pfx[:b]
	}
	r.tau = tau
	r.b = b
	r.s, r.e = 1, 1
	r.c = 0
	r.q = q
	r.qErr = nil
	r.done = false
	r.pending = false
}

// NodesScanned returns the number of document nodes consumed so far.
func (r *Buffer) NodesScanned() int { return r.c }

// slot maps the 1-based id of a buffered node (or of the node one past
// the newest) to its ring slot, id mod b. The end slot e always holds
// (c+1) mod b and such an id lies fewer than b positions below c+1, so the
// slot is e minus that distance, wrapped once — no division per node.
func (r *Buffer) slot(id int) int {
	x := r.e - (r.c + 1 - id)
	if x < 0 {
		x += r.b
	}
	return x
}

// buffered returns the number of buffered nodes, (e−s+b) mod b.
func (r *Buffer) buffered() int {
	n := r.e - r.s
	if n < 0 {
		n += r.b
	}
	return n
}

// full reports whether the ring buffer is full: s == (e+1) mod b.
func (r *Buffer) full() bool {
	n := r.e + 1
	if n == r.b {
		n = 0
	}
	return r.s == n
}

// startID returns the postorder id of the leftmost buffered node,
// c + 1 − (e−s+b) % b in the paper's notation (Algorithm 2, line 14).
func (r *Buffer) startID() int { return r.c + 1 - r.buffered() }

// Next advances the scan to the next candidate subtree (the paper's
// prb-next, Algorithm 2) and reports whether one is available. When it
// returns true the candidate occupies the buffer start; inspect it with
// Root, Leaf, Label, LMLOf, SizeOf, Window and Subtree, then call Next
// again — the previous candidate is removed automatically (Algorithm 1,
// line 7). Next returns false with a nil error after the last candidate
// and false with the error if the underlying queue fails or a node's size
// lies outside 1..its position or, for a node of size ≤ τ, does not nest
// (nests); the error is sticky.
//
//tasm:hotpath
func (r *Buffer) Next() (bool, error) {
	if r.qErr != nil {
		return false, r.qErr
	}
	if r.pending {
		// Remove the previously returned candidate: advance the start
		// past its root node.
		r.s = r.slot(r.Root() + 1)
		r.pending = false
	}
	for !r.done || r.s != r.e {
		// Step 1: fill the ring buffer from the postorder queue.
		if !r.done {
			it, err := r.q.Next()
			switch {
			case err == nil:
				// The new node, id c+1, goes to the end slot e.
				id := r.c + 1
				if it.Size < 1 || it.Size > id || !r.nests(id, it.Size) {
					r.qErr = fmt.Errorf("prb: node %d has subtree size %d, which does not nest in the nodes before it", id, it.Size) //tasm:allow alloc — cold error path: corrupt input only
					return false, r.qErr
				}
				r.lbl[r.e] = it.Label
				r.pfx[r.e] = id - it.Size + 1
				if it.Size <= r.tau {
					// Redirect the ancestor pointer of the subtree's
					// leftmost leaf (Definition 10). The leaf is still
					// buffered because size ≤ τ < b, size−1 slots back.
					ls := r.e - (it.Size - 1)
					if ls < 0 {
						ls += r.b
					}
					r.pfx[ls] = id
				}
				r.c = id
				if r.e++; r.e == r.b {
					r.e = 0
				}
			// Queues return a bare io.EOF by contract; errors.Is runs only
			// for a source that wraps it.
			case err == io.EOF || errors.Is(err, io.EOF): //tasm:allow alloc — errors.Is allocates nothing; sentinel comparison on the stream-end path
				r.done = true
			default:
				r.qErr = err
				return false, err
			}
		}
		// Step 2: once the buffer is full (or the queue is exhausted),
		// remove from the left: a leaf starts a candidate subtree, a
		// non-leaf is a non-candidate node and is skipped (Lemma 2).
		if (r.full() || r.done) && r.s != r.e {
			if r.pfx[r.s] >= r.startID() {
				r.pending = true
				return true, nil
			}
			if r.s++; r.s == r.b {
				r.s = 0
			}
		}
	}
	return false, nil
}

// nests reports whether node id of the given size, about to be appended,
// nests in the nodes before it: whether its children — the node before
// it, the node before that one's leftmost leaf, and so on — tile its
// subtree exactly, none reaching left of its leftmost leaf id−size+1. A
// node larger than τ may span nodes the ring no longer holds and is
// taken as it comes. A stream that passes for every node of size ≤ τ
// never redirects the entry of a node that is not a leaf, so every
// candidate it yields is a well-formed subtree; a split made by a larger
// node cannot be seen in bounded memory (postorder.Validate sees it).
// Every node is stepped over once, by its parent. The walk goes by slot:
// every child lies fewer than τ nodes back, so the ring still holds it.
//
//tasm:hotpath
func (r *Buffer) nests(id, size int) bool {
	if size == 1 || size > r.tau {
		return true
	}
	lml := id - size + 1
	c, x := id-1, r.e-1 // a child and its slot: first the node before id
	if x < 0 {
		x += r.b
	}
	for {
		l := min(r.pfx[x], c) // c's leftmost leaf: a leaf's entry is ≥ c
		if l <= lml {
			return l == lml
		}
		if x -= c - l + 1; x < 0 { // to the child before c, node l−1
			x += r.b
		}
		c = l - 1
	}
}

// Root returns the 1-based postorder id of the current candidate's root:
// the prefix-array entry of its leftmost leaf.
//
//tasm:hotpath
func (r *Buffer) Root() int { return r.pfx[r.s] }

// Leaf returns the 1-based postorder id of the current candidate's
// leftmost leaf (the leftmost buffered node).
//
//tasm:hotpath
func (r *Buffer) Leaf() int { return r.startID() }

// Label returns the label of buffered node id.
//
//tasm:hotpath
func (r *Buffer) Label(id int) int { return r.lbl[r.slot(id)] }

// LMLOf returns the leftmost leaf id of buffered node id. Outside this
// package only bench/layers.go's replica of the ring scan, and tests,
// read it: the scan reads a candidate through its window.
//
//tasm:hotpath
func (r *Buffer) LMLOf(id int) int {
	if e := r.pfx[r.slot(id)]; e < id {
		return e
	}
	return id // a leaf is its own leftmost leaf
}

// SizeOf returns the subtree size of buffered node id, derived from the
// prefix array: id − lml(id) + 1.
//
//tasm:hotpath
func (r *Buffer) SizeOf(id int) int { return id - r.LMLOf(id) + 1 }

// Window returns the labels and subtree sizes of the buffered nodes
// from..to (inclusive, 1-based document postorder ids) — the paper's
// prb-subtree: the current candidate or one of its subtrees, so at most τ
// nodes — copied into the buffer's own
// scratch, sized with the ring: the ring is not contiguous, so, unlike
// Cursor.Window, the window cannot be a slice of it. The slices are valid
// until the next call to Window or Next and must not be written to.
//
//tasm:hotpath
func (r *Buffer) Window(from, to int) (labels, sizes []int32) {
	n := to - from + 1
	labels, sizes = r.winL[:n], r.winS[:n]
	x := r.slot(from)
	for j := range labels {
		id := from + j
		labels[j] = int32(r.lbl[x])
		sizes[j] = int32(id - min(r.pfx[x], id) + 1) // SizeOf, by slot
		if x++; x == r.b {
			x = 0
		}
	}
	return labels, sizes
}

// FillView fills v with the buffered subtree spanning nodes from..to
// (inclusive, 1-based document postorder ids), whose labels resolve in d;
// an empty range fills nothing, which v's Build refuses. It performs no
// allocation once v's buffers have grown to the largest subtree filled.
// The scan reads windows instead (Window), so bench/layers.go's replica
// of the scan loop is its only caller outside tests.
//
//tasm:hotpath
func (r *Buffer) FillView(d dict.Dict, v *tree.View, from, to int) error {
	labels, sizes := v.Reset(d, max(to-from+1, 0))
	for id := from; id <= to; id++ {
		labels[id-from] = r.Label(id)
		sizes[id-from] = r.SizeOf(id)
	}
	return v.Build()
}

// Subtree materializes the buffered subtree spanning nodes from..to
// (inclusive, 1-based document postorder ids) as a tree.Tree whose labels
// resolve in d. Internal scratch slices are reused across calls.
func (r *Buffer) Subtree(d dict.Dict, from, to int) (*tree.Tree, error) {
	n := to - from + 1
	if n < 1 {
		return nil, fmt.Errorf("prb: empty subtree range [%d,%d]", from, to)
	}
	r.scratchL = r.scratchL[:0]
	r.scratchS = r.scratchS[:0]
	for id := from; id <= to; id++ {
		r.scratchL = append(r.scratchL, r.Label(id))
		r.scratchS = append(r.scratchS, r.SizeOf(id))
	}
	return tree.FromPostorder(d, r.scratchL, r.scratchS)
}
