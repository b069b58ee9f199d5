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
// tree.Tree (Subtree — allocates per call) or, on the hot path, by
// filling a reusable flat tree.View in place (FillView — allocation-free
// once the view's buffers have grown to the candidate sizes of the scan).
// The buffered nodes stay valid until the next call to Next, so one
// candidate may be read any number of times (e.g. once per subtree the τ′
// bound retains).
//
// The ring buffer is what a stream needs. A document already resident as
// postorder columns needs no buffer at all: Cursor enumerates the same
// candidate set in the same order by index arithmetic over the size
// column and serves the same reads, so the scan kernels take either.
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

	scratchL, scratchS []int // reusable buffers for Subtree
}

// New returns a prefix ring buffer pruning the document streamed by q with
// size threshold tau ≥ 1.
func New(q postorder.Queue, tau int) *Buffer {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	b := tau + 1
	return &Buffer{
		tau: tau,
		b:   b,
		lbl: make([]int, b),
		pfx: make([]int, b),
		s:   1,
		e:   1,
		q:   q,
	}
}

// Reset re-points the buffer at a new postorder queue with threshold tau,
// reusing the ring arrays when they are large enough. A reset buffer is
// indistinguishable from one freshly returned by New: the ring contents
// are never read before being written (every node's slots are filled on
// append), so stale values from the previous document are harmless. This
// is the pooling hook for corpus scans, which open one buffer per worker
// and re-point it at every document of a run.
func (r *Buffer) Reset(q postorder.Queue, tau int) {
	if tau < 1 {
		panic(fmt.Sprintf("prb: threshold τ must be ≥ 1, got %d", tau))
	}
	b := tau + 1
	if cap(r.lbl) < b {
		r.lbl = make([]int, b)
		r.pfx = make([]int, b)
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

// Tau returns the size threshold τ.
func (r *Buffer) Tau() int { return r.tau }

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
// Root, Leaf, Entry, Label, SizeOf and Subtree, then call Next again — the
// previous candidate is removed automatically (Algorithm 1, line 7). Next
// returns false with a nil error after the last candidate and false with
// the error if the underlying queue fails.
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
				if it.Size < 1 || it.Size > r.c+1 {
					r.qErr = fmt.Errorf("prb: node %d has invalid subtree size %d", r.c+1, it.Size) //tasm:allow alloc — cold error path: corrupt input only
					return false, r.qErr
				}
				// The new node, id c+1, goes to the end slot e.
				id := r.c + 1
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

// Entry returns the prefix-array entry of buffered node id: lml for a
// non-leaf, the largest recorded ancestor (≥ id) for a leaf.
//
//tasm:hotpath
func (r *Buffer) Entry(id int) int { return r.pfx[r.slot(id)] }

// LMLOf returns the leftmost leaf id of buffered node id.
//
//tasm:hotpath
func (r *Buffer) LMLOf(id int) int {
	if e := r.pfx[r.slot(id)]; e < id {
		return e
	}
	return id // a leaf is its own leftmost leaf
}

// LabelBound returns h's lower bound for the current candidate; see
// LabelHist.CandidateBound. The query index, which Cursor needs, is not
// read.
//
//tasm:hotpath
func (r *Buffer) LabelBound(_ int, h *LabelHist) int {
	return h.CandidateBound(r, r.Leaf(), r.Root())
}

// SizeOf returns the subtree size of buffered node id, derived from the
// prefix array: id − lml(id) + 1.
//
//tasm:hotpath
func (r *Buffer) SizeOf(id int) int { return id - r.LMLOf(id) + 1 }

// AppendItems appends the (label, size) postorder items of nodes from..to
// (inclusive, 1-based ids within the current candidate) to dst and returns
// it. This is the paper's prb-subtree.
func (r *Buffer) AppendItems(dst []postorder.Item, from, to int) []postorder.Item {
	for id := from; id <= to; id++ {
		dst = append(dst, postorder.Item{Label: r.Label(id), Size: r.SizeOf(id)})
	}
	return dst
}

// FillView fills v with the buffered subtree spanning nodes from..to
// (inclusive, 1-based document postorder ids), whose labels resolve in d.
// It performs no allocation once v's buffers have grown to the largest
// subtree filled, which makes it the hot-path alternative to Subtree.
//
//tasm:hotpath
func (r *Buffer) FillView(d dict.Dict, v *tree.View, from, to int) error {
	n := to - from + 1
	if n < 1 {
		return fmt.Errorf("prb: empty subtree range [%d,%d]", from, to) //tasm:allow alloc — cold error path: caller bug only
	}
	labels, sizes := v.Reset(d, n)
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
