package prb

import "tasm/internal/tree"

// LabelHist maintains a sliding label histogram over the window of
// buffered nodes that forms the pending candidate, together with the
// derived quantity the pruning pipeline consumes: the number of query
// nodes whose label is missing from the window.
//
// Missing = Σ_label max(0, count_Q(l) − count_window(l)) is a sound lower
// bound on the tree edit distance between the query and ANY subtree whose
// nodes lie inside the window: each of those query nodes must be deleted
// (cost ≥ 1) or renamed to a different label (cost ≥ 1) under any
// Definition-4 cost model, and a subtree's label bag is a sub-bag of its
// window's. A candidate whose bound already exceeds the running k-th
// distance can therefore be skipped without evaluating any of its
// subtrees.
//
// Only labels that occur in the query can reduce Missing, so the
// histogram keeps per-label state for the query's distinct labels alone:
// need and have are indexed by the label's ordinal — 1-based in order of
// first occurrence in the query, 0 for every label the query does not
// use — and hold at most |Q|+1 entries. Two representations of the
// label → ordinal table share one API, picked at construction by the
// largest query label id:
//
//   - dense: a direct-index uint16 table over [0, maxID] — one two-byte
//     load per node, the fast path for scans whose dictionaries are
//     small;
//   - sparse: a small open-addressing table of the query's distinct
//     labels — O(|Q|) memory however large the id space, the safe path
//     for queries interned late into a shared corpus dictionary (which
//     never evicts, so dense indexing would cost O(dictionary) per
//     scan).
//
// Add and Remove are allocation-free in both modes. Candidate windows of
// one scan are pairwise disjoint (candidates are maximal subtrees), so
// sliding the window from one candidate to the next touches every
// document node at most twice over the whole scan — the amortized
// maintenance cost is O(1) per scanned node.
//
// A LabelHist is owned by one scan goroutine; it is not safe for
// concurrent use.
type LabelHist struct {
	// Dense mode: dense maps a label id to its ordinal; keys is nil.
	// Sparse mode: keys is the open-addressing table of query label ids
	// (-1 = empty) and ords the ordinal in each slot (0 in an empty one).
	dense   []uint16
	keys    []int
	ords    []int32
	mask    int   // len(keys)-1 in sparse mode; len is a power of two ≥ 2·|Q|
	ids     []int // by ordinal: the label id (ids[0] unused)
	need    []int // by ordinal: occurrences in the query
	have    []int // by ordinal: occurrences in the window
	missing int   // Σ max(0, need − have)
}

// denseLimit is the largest label id the dense representation indexes
// directly: a 4096-entry uint16 table (8 KiB) per histogram at most. The
// ordinals of a dense histogram therefore always fit its uint16 entries.
const denseLimit = 1 << 12

// NewLabelHist returns an empty-window histogram for query q.
func NewLabelHist(q *tree.Tree) *LabelHist {
	labels := q.LabelIDs()
	maxID := 0
	for _, id := range labels {
		if id > maxID {
			maxID = id
		}
	}
	h := &LabelHist{missing: len(labels)}
	if maxID < denseLimit {
		h.dense = make([]uint16, maxID+1)
	} else {
		size := 4
		for size < 2*len(labels) {
			size <<= 1
		}
		h.keys = make([]int, size)
		h.ords = make([]int32, size)
		h.mask = size - 1
		for i := range h.keys {
			h.keys[i] = -1
		}
	}
	// need, have and ids are carved from one backing of the worst-case
	// length; need[0] stays 0 — ordinal 0 is "not a query label".
	counts := make([]int, 3*(len(labels)+1))
	need, ids := counts[:1], counts[2*(len(labels)+1):][:1]
	for _, id := range labels {
		o := h.Ordinal(id)
		if o == 0 {
			o = len(need)
			need = need[:o+1]
			ids = append(ids, id)
			if h.keys == nil {
				h.dense[id] = uint16(o)
			} else {
				s := h.slot(id)
				h.keys[s], h.ords[s] = id, int32(o)
			}
		}
		need[o]++
	}
	h.need, h.have, h.ids = need, counts[len(need):2*len(need)], ids
	return h
}

// slot returns the sparse table slot holding label id, or the empty slot
// where it would be inserted. The table is at most half full, so the
// probe always terminates.
func (h *LabelHist) slot(id int) int {
	i := (id * 0x9E3779B1) & h.mask // Fibonacci hash onto the power-of-two table
	for h.keys[i] != id && h.keys[i] != -1 {
		i = (i + 1) & h.mask
	}
	return i
}

// Ordinal returns the 1-based ordinal of an interned label among the
// query's distinct labels, or 0 when the query does not use it (negative
// ids — labels unknown to the query's dictionary — included). Two nodes
// compare equal against every query node exactly when their ordinals are
// equal, which is what makes the ordinal the label half of a view's
// signature (Signature).
//
//tasm:hotpath
func (h *LabelHist) Ordinal(label int) int {
	if h.keys == nil {
		if uint(label) < uint(len(h.dense)) {
			return int(h.dense[label])
		}
		return 0
	}
	if label < 0 {
		return 0
	}
	return int(h.ords[h.slot(label)])
}

// Add slides one node with the given interned label into the window.
//
//tasm:hotpath
func (h *LabelHist) Add(label int) {
	o := h.Ordinal(label)
	if o == 0 { // not a query label: cannot reduce the bound
		return
	}
	h.have[o]++
	if h.have[o] <= h.need[o] {
		h.missing--
	}
}

// Remove slides one node with the given interned label out of the window.
// The node must have been Added before.
//
//tasm:hotpath
func (h *LabelHist) Remove(label int) {
	o := h.Ordinal(label)
	if o == 0 {
		return
	}
	h.have[o]--
	if h.have[o] < h.need[o] {
		h.missing++
	}
}

// Missing returns the current lower bound: the number of query nodes
// that cannot be mapped to an equal-labelled node of the window.
func (h *LabelHist) Missing() int { return h.missing }

// wipe empties the window a one-pass bound over labels filled: it zeroes
// all counts, unless that is more work than revisiting the labels that can
// have touched them (a zeroed count costs about an eighth of a revisited
// label) — so a query of a thousand labels does not pay a thousand counts
// for every leaf-sized window.
//
//tasm:hotpath
func wipe[L int | int32](h *LabelHist, labels []L) {
	if len(labels) >= len(h.have)/8 {
		clear(h.have)
	} else {
		revisit(h, labels)
	}
}

// revisit is wipe's rare branch, kept out of line so that wipe inlines.
func revisit[L int | int32](h *LabelHist, labels []L) {
	for _, l := range labels {
		h.have[h.Ordinal(int(l))] = 0
	}
}

// Signature returns h's histogram-intersection lower bound for a window
// given as the label and subtree-size arrays of a flat view — in one
// pass, counts wiped instead of slid off, the window empty on entry and
// on return — and in the same pass derives the window's canonical
// signature: per node, in postorder, the ordinal of its label and the size
// of its subtree. The sizes fix the shape of the window and the ordinals
// say which query label, if any, every node carries, so two windows with
// equal signatures are indistinguishable to any computation that compares
// their labels only against query labels. The signature is written to sig
// as 2·len(labels) int16s — when sig is that long; a shorter sig (nil) is
// left alone, for callers that want the bound only. Ordinals and sizes of
// a window whose signature is stored must fit an int16.
//
// The arrays may be a view's (int) or slices of a document's postorder
// columns (int32): a resident document's window is read in place.
//
//tasm:hotpath
func Signature[L int | int32](h *LabelHist, labels, sizes []L, sig []int16) (bound int) {
	store := len(sig) >= 2*len(labels)
	sizes = sizes[:len(labels)]
	bound = h.missing
	for j, l := range labels {
		o := h.Ordinal(int(l))
		if store {
			sig[2*j], sig[2*j+1] = int16(o), int16(sizes[j])
		}
		if h.have[o] < h.need[o] { // never for o = 0: need[0] is 0
			h.have[o]++
			bound--
		}
	}
	wipe(h, labels)
	return bound
}

// CandidateBound slides the window onto the buffered subtree spanning
// nodes from..to (1-based document postorder ids, valid in b) and returns
// the histogram-intersection lower bound for it. The window is slid off
// again before returning, so consecutive candidates need no coordination
// and the histogram state cannot go stale when candidates are skipped;
// because candidates are disjoint this costs the same node-delta work as
// an explicitly persistent window. It performs no allocation. The scan
// bounds a stream's candidates on the cursor over its window instead
// (Cursor.ResetWindow), so bench/layers.go's replica of the ring scan is
// its only caller outside tests.
//
//tasm:hotpath
func (h *LabelHist) CandidateBound(b *Buffer, from, to int) int {
	for id := from; id <= to; id++ {
		h.Add(b.lbl[b.slot(id)])
	}
	bound := h.missing
	for id := from; id <= to; id++ {
		h.Remove(b.lbl[b.slot(id)])
	}
	return bound
}
