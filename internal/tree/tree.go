package tree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tasm/internal/dict"
)

// Tree is an ordered labeled tree in flattened postorder form.
//
// Node i (0-based postorder index; the paper's t_{i+1}) is described by
// four parallel arrays: its interned label, the size of the subtree rooted
// at it, the index of its leftmost leaf lml(i), and its parent index (-1
// for the root). The root is always the last node, index Size()-1.
//
// All algorithms in this repository (tree edit distance, ring-buffer
// pruning, TASM) address nodes through this representation.
type Tree struct {
	dict   dict.Dict
	labels []int // interned label of node i
	sizes  []int // |T_i|: number of nodes in the subtree rooted at i
	lml    []int // leftmost leaf (smallest postorder descendant) of i
	parent []int // parent index of i, -1 for the root
	nchild []int // fanout of i

	// nav is the lazily built first-child/next-sibling index behind the
	// navigation helpers (navigate.go), and kr the lazily computed
	// keyroots. Atomic so concurrent readers may trigger the build
	// safely; Trees must never be copied by value.
	nav atomic.Pointer[navIndex]
	kr  atomic.Pointer[[]int]
}

// Dict returns the label dictionary the tree's labels are interned in.
func (t *Tree) Dict() dict.Dict { return t.dict }

// Size returns the number of nodes |T|.
func (t *Tree) Size() int { return len(t.labels) }

// Root returns the postorder index of the root node, Size()-1.
func (t *Tree) Root() int { return len(t.labels) - 1 }

// LabelID returns the interned label of node i.
func (t *Tree) LabelID(i int) int { t.check(i); return t.labels[i] }

// Label returns the string label of node i.
func (t *Tree) Label(i int) string { t.check(i); return t.dict.Label(t.labels[i]) }

// SubtreeSize returns |T_i|, the number of nodes of the subtree rooted at i.
func (t *Tree) SubtreeSize(i int) int { t.check(i); return t.sizes[i] }

// LML returns the postorder index of the leftmost leaf of node i, its
// smallest descendant (lml in the paper). For a leaf, LML(i) == i.
func (t *Tree) LML(i int) int { t.check(i); return t.lml[i] }

// Parent returns the parent index of node i, or -1 for the root.
func (t *Tree) Parent(i int) int { t.check(i); return t.parent[i] }

// LabelIDs returns the interned labels of all nodes in postorder. The
// slice aliases the tree's backing array and must be treated as
// read-only; it exists so hot loops (the Zhang–Shasha inner DP) can avoid
// per-node method calls.
func (t *Tree) LabelIDs() []int { return t.labels }

// Sizes returns the subtree sizes of all nodes in postorder. Read-only
// alias; see LabelIDs.
func (t *Tree) Sizes() []int { return t.sizes }

// LMLs returns the leftmost-leaf indices of all nodes in postorder.
// Read-only alias; see LabelIDs.
func (t *Tree) LMLs() []int { return t.lml }

// Fanout returns the number of children of node i.
func (t *Tree) Fanout(i int) int { t.check(i); return t.nchild[i] }

// IsLeaf reports whether node i has no children.
func (t *Tree) IsLeaf(i int) bool { t.check(i); return t.nchild[i] == 0 }

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree) Height() int {
	depth := make([]int, len(t.labels))
	h := 0
	// Walk in reverse postorder so parents are seen before children.
	for i := len(t.labels) - 1; i >= 0; i-- {
		if p := t.parent[i]; p >= 0 {
			depth[i] = depth[p] + 1
		}
		if depth[i]+1 > h {
			h = depth[i] + 1
		}
	}
	return h
}

// IsAncestor reports whether a is a proper ancestor of i. In postorder an
// ancestor has a larger index and its subtree interval covers i.
func (t *Tree) IsAncestor(a, i int) bool {
	t.check(a)
	t.check(i)
	return a > i && t.lml[a] <= i
}

// Subtree returns the subtree T_i rooted at node i as an independent Tree
// that shares the label dictionary. Indices in the result are shifted so
// that the subtree occupies [0, SubtreeSize(i)).
func (t *Tree) Subtree(i int) *Tree {
	t.check(i)
	off := t.lml[i]
	n := t.sizes[i]
	s := &Tree{
		dict:   t.dict,
		labels: make([]int, n),
		sizes:  make([]int, n),
		lml:    make([]int, n),
		parent: make([]int, n),
		nchild: make([]int, n),
	}
	copy(s.labels, t.labels[off:off+n])
	copy(s.sizes, t.sizes[off:off+n])
	copy(s.nchild, t.nchild[off:off+n])
	for j := 0; j < n; j++ {
		s.lml[j] = t.lml[off+j] - off
		if p := t.parent[off+j]; p >= off && p < off+n {
			s.parent[j] = p - off
		} else {
			s.parent[j] = -1
		}
	}
	return s
}

// Keyroots returns the postorder indices of the LR-keyroots of the tree in
// increasing order: nodes that are not on the leftmost path from any
// higher node, i.e. k is a keyroot iff no node j > k has lml(j) == lml(k).
// These are exactly the roots of the paper's relevant subtrees
// (Definition 8). The root is always a keyroot.
//
// The result is computed on first use, cached for the tree's lifetime,
// and shared between callers: treat it as read-only.
func (t *Tree) Keyroots() []int {
	if p := t.kr.Load(); p != nil {
		return *p
	}
	// The keyroot for a given leftmost leaf is the largest node with that
	// leftmost leaf; record the maximum per lml value (postorder scan:
	// later nodes overwrite earlier ones).
	n := len(t.labels)
	maxFor := make([]int, n)
	for i := range maxFor {
		maxFor[i] = -1
	}
	for i := 0; i < n; i++ {
		maxFor[t.lml[i]] = i
	}
	kr := make([]int, 0, n/2+1)
	for _, i := range maxFor {
		if i >= 0 {
			kr = append(kr, i)
		}
	}
	// kr is ordered by leftmost leaf; Zhang–Shasha needs increasing
	// postorder order so that referenced subtree distances are available.
	sort.Ints(kr)
	t.kr.CompareAndSwap(nil, &kr)
	return *t.kr.Load()
}

// Reintern returns a tree with the same structure whose labels are
// interned in d, resolving them by string through the tree's own
// dictionary. The structural arrays are shared with the receiver (they
// are immutable); only the label array is rebuilt, so the cost is
// O(n) string interning. A tree already interned in d is returned
// unchanged. This is how a query parsed under one dictionary enters a
// request-scoped overlay.
func (t *Tree) Reintern(d dict.Dict) *Tree {
	if t.dict == d {
		return t
	}
	labels := make([]int, len(t.labels))
	for i, id := range t.labels {
		labels[i] = d.Intern(t.dict.Label(id))
	}
	return &Tree{
		dict:   d,
		labels: labels,
		sizes:  t.sizes,
		lml:    t.lml,
		parent: t.parent,
		nchild: t.nchild,
	}
}

// Equal reports whether two trees have identical structure and labels.
// The trees may use different dictionaries; labels are compared as strings
// if the dictionaries differ and as identifiers otherwise.
func (t *Tree) Equal(o *Tree) bool {
	if t.Size() != o.Size() {
		return false
	}
	sameDict := t.dict == o.dict
	for i := range t.labels {
		if t.sizes[i] != o.sizes[i] || t.lml[i] != o.lml[i] || t.parent[i] != o.parent[i] {
			return false
		}
		if sameDict {
			if t.labels[i] != o.labels[i] {
				return false
			}
		} else if t.dict.Label(t.labels[i]) != o.dict.Label(o.labels[i]) {
			return false
		}
	}
	return true
}

// String renders the tree in bracket notation.
func (t *Tree) String() string {
	if t.Size() == 0 {
		return "{}"
	}
	return t.Node(t.Root()).String()
}

// Validate checks the structural invariants of the postorder representation
// and returns a descriptive error for the first violation. It is used by
// tests and by code paths that accept externally produced trees (postorder
// queues, binary stores).
func (t *Tree) Validate() error {
	n := len(t.labels)
	if n == 0 {
		return fmt.Errorf("tree: empty (ordered labeled trees are non-empty)")
	}
	if len(t.sizes) != n || len(t.lml) != n || len(t.parent) != n || len(t.nchild) != n {
		return fmt.Errorf("tree: parallel arrays have inconsistent lengths")
	}
	if t.parent[n-1] != -1 {
		return fmt.Errorf("tree: last postorder node %d is not the root (parent %d)", n-1, t.parent[n-1])
	}
	for i := 0; i < n; i++ {
		sz, l, p := t.sizes[i], t.lml[i], t.parent[i]
		if sz < 1 || sz > i+1 {
			return fmt.Errorf("tree: node %d has invalid subtree size %d", i, sz)
		}
		if l != i-sz+1 {
			return fmt.Errorf("tree: node %d has lml %d, want %d (size %d)", i, l, i-sz+1, sz)
		}
		if i < n-1 {
			if p <= i || p >= n {
				return fmt.Errorf("tree: node %d has invalid parent %d", i, p)
			}
			if t.lml[p] > l {
				return fmt.Errorf("tree: node %d not inside parent %d's subtree", i, p)
			}
		}
	}
	// Each node's size must be 1 plus the sizes of its children.
	childSum := make([]int, n)
	fanout := make([]int, n)
	for i := 0; i < n-1; i++ {
		childSum[t.parent[i]] += t.sizes[i]
		fanout[t.parent[i]]++
	}
	for i := 0; i < n; i++ {
		if t.sizes[i] != childSum[i]+1 {
			return fmt.Errorf("tree: node %d size %d != 1 + children sizes %d", i, t.sizes[i], childSum[i])
		}
		if t.nchild[i] != fanout[i] {
			return fmt.Errorf("tree: node %d fanout %d != recorded %d", i, fanout[i], t.nchild[i])
		}
	}
	return nil
}
