// Package ranking implements the top-k ranking structure of TASM
// (Section VI-B): a bounded max-heap of (distance, subtree) pairs
// supporting constant-time access to the current k-th best distance
// (max) and logarithmic insertion and eviction (pop-heap).
//
// Entries are ordered by (Distance, Pos): ties in distance are broken by
// the subtree root's postorder position in the document, which makes
// rankings deterministic and comparable across the three TASM algorithms.
package ranking

import (
	"fmt"
	"math"
	"sort"

	"tasm/internal/tree"
)

// Entry is one ranked subtree.
type Entry struct {
	// Dist is the tree edit distance between the query and the subtree.
	Dist float64
	// Pos is the 1-based postorder id of the subtree's root node in the
	// document; it identifies the subtree and breaks distance ties.
	Pos int
	// Size is the subtree's node count.
	Size int
	// Tree is the matched subtree; nil when the caller ranks by position
	// only (the streaming API materializes matches on request).
	Tree *tree.Tree
}

// less orders entries ascending by (Dist, Pos).
func less(a, b Entry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Pos < b.Pos
}

// Heap is a max-heap of at most K entries holding the K smallest entries
// pushed so far under the (Dist, Pos) order. The zero value is unusable;
// call New.
type Heap struct {
	k      int
	es     []Entry // binary max-heap: es[0] is the worst retained entry
	cutoff *Cutoff // optional publisher of the k-th distance; may be nil
}

// New returns an empty ranking that retains the k best entries, k ≥ 1.
func New(k int) *Heap {
	if k < 1 {
		panic(fmt.Sprintf("ranking: k must be ≥ 1, got %d", k))
	}
	return &Heap{k: k, es: make([]Entry, 0, k)}
}

// K returns the ranking bound.
func (h *Heap) K() int { return h.k }

// Len returns the number of retained entries, at most K.
func (h *Heap) Len() int { return len(h.es) }

// Full reports whether the ranking holds K entries, i.e. whether Max is
// the current intermediate ranking's k-th best distance (the paper's
// max(R), the quantity that tightens τ to τ′).
func (h *Heap) Full() bool { return len(h.es) == h.k }

// Max returns the worst retained entry. It panics on an empty ranking;
// TASM only consults Max when Full (Algorithm 3, line 10).
func (h *Heap) Max() Entry {
	if len(h.es) == 0 {
		panic("ranking: Max of empty ranking")
	}
	return h.es[0]
}

// PublishTo attaches a cutoff publisher: from now on, whenever the
// ranking is full, its current k-th distance is published through c (the
// value only tightens — see Cutoff). Attaching publishes the current
// k-th distance immediately if the ranking is already full. Pass nil to
// detach. The caller must ensure Push and PublishTo are not called
// concurrently (readers of the Cutoff itself are lock-free).
func (h *Heap) PublishTo(c *Cutoff) {
	h.cutoff = c
	if c != nil && len(h.es) == h.k {
		c.Tighten(h.es[0].Dist)
	}
}

// KthBound returns the tightest currently known bound on the distance an
// entry must beat to reach the final ranking: the heap's own k-th distance
// once full, further tightened by the attached cutoff publisher when one
// is attached. Cooperating scans (corpus documents, shards of a
// scatter-gather group) share one publisher, so the bound a scan prunes
// against reflects results other scans have already found. +Inf while no
// bound exists yet.
//
//tasm:hotpath
func (h *Heap) KthBound() float64 {
	kth := math.Inf(1)
	if len(h.es) == h.k {
		kth = h.es[0].Dist
	}
	if h.cutoff != nil {
		if v := h.cutoff.Load(); v < kth {
			kth = v
		}
	}
	return kth
}

// Push offers an entry to the ranking. When the ranking is full, the entry
// is retained only if it beats the current worst, which it then evicts.
// Push reports whether the entry was retained.
//
//tasm:hotpath
func (h *Heap) Push(e Entry) bool {
	if n := len(h.es); n < h.k {
		h.es = h.es[:n+1] // within the capacity k New preallocates
		h.es[n] = e
		h.up(n)
		if h.cutoff != nil && n+1 == h.k {
			h.cutoff.Tighten(h.es[0].Dist)
		}
		return true
	}
	if !less(e, h.es[0]) {
		return false
	}
	h.es[0] = e
	h.down(0)
	if h.cutoff != nil {
		h.cutoff.Tighten(h.es[0].Dist)
	}
	return true
}

// WouldRetain reports whether Push(e) would keep e, without modifying the
// ranking. Callers use it to defer expensive entry construction (e.g.
// materializing the matched subtree) until retention is certain.
//
//tasm:hotpath
func (h *Heap) WouldRetain(e Entry) bool {
	return len(h.es) < h.k || less(e, h.es[0])
}

// Sorted returns the retained entries in ranking order: ascending
// (Dist, Pos). The heap is not modified.
func (h *Heap) Sorted() []Entry {
	out := make([]Entry, len(h.es))
	copy(out, h.es)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// up restores the heap property from index i towards the root.
func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h.es[p], h.es[i]) {
			return
		}
		h.es[p], h.es[i] = h.es[i], h.es[p]
		i = p
	}
}

// down restores the heap property from index i towards the leaves.
func (h *Heap) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && less(h.es[big], h.es[l]) {
			big = l
		}
		if r < n && less(h.es[big], h.es[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.es[i], h.es[big] = h.es[big], h.es[i]
		i = big
	}
}
