package tree

import (
	"fmt"
	"slices"

	"tasm/internal/dict"
)

// View is a flat, reusable postorder view of one tree: the same parallel
// arrays a Tree holds (labels, subtree sizes, leftmost leaves, parents,
// fanouts) but owned by the View and recycled across fills, so that
// steady-state candidate evaluation allocates nothing per candidate.
//
// The filling contract is Reset → write labels/sizes → Build:
//
//	labels, sizes := v.Reset(d, n) // grow buffers, expose the two inputs
//	...fill labels[i], sizes[i]...  // postorder, sizes per Definition 2
//	err := v.Build()               // derive lml/parent/fanout, validate
//
// Build validates that the arrays encode a single well-formed tree exactly
// like FromPostorder; after a successful Build the accessors and Keyroots
// are valid until the next Reset. Keyroots are computed lazily on first
// use and cached for the lifetime of the fill.
//
// The slices returned by the accessors alias the View's internal buffers:
// they are invalidated by the next Reset and must not be mutated. A View
// is not safe for concurrent use; keep one View per goroutine instead.
type View struct {
	dict   dict.Dict
	labels []int
	sizes  []int
	lml    []int
	parent []int
	nchild []int

	kr      []int // cached keyroots of the current fill
	krValid bool
	maxFor  []int // scratch for keyroot computation
	stack   []int // scratch for Build
	shell   *Tree // lazily allocated alias Tree for cost models etc.
}

// growInts returns s resized to length n, reusing its backing array when
// the capacity suffices and growing geometrically otherwise.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]int, n, c) //tasm:allow alloc — grow-only scratch: reallocates only when n exceeds every prior capacity
}

// Reset prepares the view for a tree of n ≥ 1 nodes with labels interned
// in d, and returns the labels and sizes buffers for the caller to fill
// (both of length exactly n). Any previous fill is discarded.
func (v *View) Reset(d dict.Dict, n int) (labels, sizes []int) {
	v.dict = d
	v.labels = growInts(v.labels, n)
	v.sizes = growInts(v.sizes, n)
	v.lml = growInts(v.lml, n)
	v.parent = growInts(v.parent, n)
	v.nchild = growInts(v.nchild, n)
	v.krValid = false
	return v.labels, v.sizes
}

// Build derives the leftmost-leaf, parent and fanout arrays from the
// filled labels/sizes and validates that they encode a single well-formed
// tree (the same checks as FromPostorder). It must be called after Reset
// and before any accessor.
func (v *View) Build() error {
	n := len(v.labels)
	if n == 0 {
		return fmt.Errorf("tree: empty postorder sequence") //tasm:allow alloc — cold error path: corrupt input only
	}
	stack := v.stack[:0]
	for i := 0; i < n; i++ {
		sz := v.sizes[i]
		if sz < 1 || sz > i+1 {
			v.stack = stack
			return fmt.Errorf("tree: node %d has invalid subtree size %d", i, sz) //tasm:allow alloc — cold error path: corrupt input only
		}
		lml := i - sz + 1
		v.lml[i] = lml
		v.parent[i] = -1
		v.nchild[i] = 0
		// Adopt completed subtrees inside [lml, i-1]; they must tile the
		// interval exactly from the right.
		cover := i - 1
		for len(stack) > 0 && stack[len(stack)-1] >= lml {
			top := stack[len(stack)-1]
			if top != cover {
				v.stack = stack
				return fmt.Errorf("tree: node %d (size %d) leaves a gap before descendant %d", i, sz, top) //tasm:allow alloc — cold error path: corrupt input only
			}
			stack = stack[:len(stack)-1]
			v.parent[top] = i
			v.nchild[i]++
			cover = v.lml[top] - 1
		}
		if cover != lml-1 {
			v.stack = stack
			return fmt.Errorf("tree: node %d (size %d) does not cover nodes down to %d", i, sz, lml) //tasm:allow alloc — cold error path: corrupt input only
		}
		stack = append(stack, i) //tasm:allow alloc — grow-only: appends into build scratch reused across fills
	}
	v.stack = stack
	if len(stack) != 1 {
		return fmt.Errorf("tree: postorder sequence encodes %d trees, want exactly 1", len(stack)) //tasm:allow alloc — cold error path: corrupt input only
	}
	return nil
}

// Size returns the number of nodes of the current fill.
func (v *View) Size() int { return len(v.labels) }

// Dict returns the dictionary the current fill's labels are interned in.
func (v *View) Dict() dict.Dict { return v.dict }

// LabelIDs returns the interned labels in postorder. Read-only alias.
func (v *View) LabelIDs() []int { return v.labels }

// Sizes returns the subtree sizes in postorder. Read-only alias.
func (v *View) Sizes() []int { return v.sizes }

// LMLs returns the leftmost-leaf indices in postorder. Read-only alias.
func (v *View) LMLs() []int { return v.lml }

// Keyroots returns the LR-keyroots of the current fill in increasing
// postorder, computed on first use and cached until the next Reset.
// Read-only alias.
func (v *View) Keyroots() []int {
	if v.krValid {
		return v.kr
	}
	n := len(v.labels)
	maxFor := growInts(v.maxFor, n)
	for i := range maxFor {
		maxFor[i] = -1
	}
	for i := 0; i < n; i++ {
		maxFor[v.lml[i]] = i
	}
	kr := v.kr[:0]
	for _, i := range maxFor {
		if i >= 0 {
			kr = append(kr, i) //tasm:allow alloc — grow-only: appends into keyroot scratch reused across fills
		}
	}
	slices.Sort(kr)
	v.kr, v.maxFor = kr, maxFor
	v.krValid = true
	return kr
}

// Tree returns a Tree aliasing the view's buffers, for code that needs a
// *Tree (cost models, probes). The returned tree is valid until the next
// Reset, shares the View's lifetime (the same pointer is reused across
// fills), and must be treated as read-only.
func (v *View) Tree() *Tree {
	if v.shell == nil {
		v.shell = &Tree{} //tasm:allow alloc — lazily allocated once per View lifetime, reused across fills
	}
	s := v.shell
	s.dict = v.dict
	s.labels, s.sizes, s.lml, s.parent, s.nchild = v.labels, v.sizes, v.lml, v.parent, v.nchild
	// Any lazily cached navigation index or keyroots refer to a previous
	// fill.
	s.nav.Store(nil)
	s.kr.Store(nil)
	return s
}

// Subtree materializes the subtree rooted at postorder node j of the
// current fill as an independent Tree (fresh backing arrays sharing only
// the dictionary). It is the escape hatch for results that must outlive
// the View.
func (v *View) Subtree(j int) *Tree {
	return v.Tree().Subtree(j)
}
