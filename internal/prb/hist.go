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
// histogram needs per-label state for the query's labels alone. Two
// representations share one API, picked at construction by the largest
// query label id:
//
//   - dense: direct-index need/have arrays over [0, maxID] — one array
//     load per node, the fast path for standalone scans whose
//     dictionaries are document-local and small;
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
	// Dense mode: need/have indexed by label id; keys is nil.
	// Sparse mode: keys is the open-addressing table of query label ids
	// (-1 = empty) and need/have are per-slot.
	keys    []int
	need    []int
	have    []int
	mask    int // len(keys)-1 in sparse mode; len is a power of two ≥ 2·|Q|
	missing int // Σ max(0, need − have)
	// touched is Bound's undo list: the slots it incremented from zero,
	// at most one per distinct query label.
	touched []int
}

// denseLimit is the largest label id the dense representation indexes
// directly: two 4096-entry int arrays (64 KiB) per histogram at most.
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
	h := &LabelHist{missing: len(labels), touched: make([]int, len(labels))}
	if maxID < denseLimit {
		h.need = make([]int, maxID+1)
		h.have = make([]int, maxID+1)
		for _, id := range labels {
			h.need[id]++
		}
		return h
	}
	size := 4
	for size < 2*len(labels) {
		size <<= 1
	}
	h.keys = make([]int, size)
	h.need = make([]int, size)
	h.have = make([]int, size)
	h.mask = size - 1
	for i := range h.keys {
		h.keys[i] = -1
	}
	for _, id := range labels {
		s := h.slot(id)
		h.keys[s] = id
		h.need[s]++
	}
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

// Add slides one node with the given interned label into the window.
//
//tasm:hotpath
func (h *LabelHist) Add(label int) {
	var s int
	if h.keys == nil {
		if label < 0 || label >= len(h.need) || h.need[label] == 0 {
			return
		}
		s = label
	} else {
		if label < 0 {
			return
		}
		s = h.slot(label)
		if h.keys[s] < 0 { // not a query label: cannot reduce the bound
			return
		}
	}
	h.have[s]++
	if h.have[s] <= h.need[s] {
		h.missing--
	}
}

// Remove slides one node with the given interned label out of the window.
// The node must have been Added before.
//
//tasm:hotpath
func (h *LabelHist) Remove(label int) {
	var s int
	if h.keys == nil {
		if label < 0 || label >= len(h.need) || h.need[label] == 0 {
			return
		}
		s = label
	} else {
		if label < 0 {
			return
		}
		s = h.slot(label)
		if h.keys[s] < 0 {
			return
		}
	}
	h.have[s]--
	if h.have[s] < h.need[s] {
		h.missing++
	}
}

// Missing returns the current lower bound: the number of query nodes
// that cannot be mapped to an equal-labelled node of the window.
func (h *LabelHist) Missing() int { return h.missing }

// Bound returns the histogram-intersection lower bound for a window given
// as a contiguous run of a label column — what CandidateBound computes for
// a window still inside the ring — in one pass: a node whose label is not
// in the query costs one load and falls through, and instead of sliding
// every node off again only the few slots that were hit are cleared. The
// window must be empty on entry and is empty again on return, so Bound and
// CandidateBound can alternate on one histogram. It performs no
// allocation.
//
//tasm:hotpath
func (h *LabelHist) Bound(labels []int32) int { return boundOf(h, labels) }

// BoundIDs is Bound for a window given as the label array of a tree or
// flat view; negative ids (labels unknown to the query's dictionary)
// match nothing.
//
//tasm:hotpath
func (h *LabelHist) BoundIDs(labels []int) int { return boundOf(h, labels) }

func boundOf[L int | int32](h *LabelHist, labels []L) int {
	missing, n := h.missing, 0
	for _, l := range labels {
		var s int
		if h.keys == nil {
			if l < 0 || int(l) >= len(h.need) || h.need[l] == 0 {
				continue
			}
			s = int(l)
		} else {
			if l < 0 {
				continue
			}
			s = h.slot(int(l))
			if h.keys[s] < 0 {
				continue
			}
		}
		if h.have[s] == 0 {
			h.touched[n] = s
			n++
		}
		h.have[s]++
		if h.have[s] <= h.need[s] {
			missing--
		}
	}
	for _, s := range h.touched[:n] {
		h.have[s] = 0
	}
	return missing
}

// CandidateBound slides the window onto the buffered subtree spanning
// nodes from..to (1-based document postorder ids, valid in b) and returns
// the histogram-intersection lower bound for it. The window is slid off
// again before returning, so consecutive candidates need no coordination
// and the histogram state cannot go stale when candidates are skipped;
// because candidates are disjoint this costs the same node-delta work as
// an explicitly persistent window. It performs no allocation.
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
