// Package postorder implements the postorder queue of the TASM paper
// (Definition 2): a stream of (label, size) pairs of the nodes of an
// ordered labeled tree in postorder, where size is the size of the subtree
// rooted at the node. A postorder queue uniquely defines the tree, and the
// only permitted operation is dequeuing the next pair.
//
// The postorder queue is the single document interface of this repository:
// TASM-postorder, the prefix ring buffer, the XML reader, the binary
// document store and the synthetic data generators all produce or consume
// Queue values, which is what makes the document-size-independent space
// bound of the paper achievable — documents are never required to be
// memory-resident.
package postorder

import (
	"errors"
	"fmt"
	"io"

	"tasm/internal/dict"
	"tasm/internal/tree"
)

// Item is one (label, size) pair of a postorder queue. Label is an
// identifier interned in the dict.Dict shared by query and document;
// Size is the size of the subtree rooted at the node.
type Item struct {
	Label int
	Size  int
}

// Queue is a postorder queue. Next returns the next (label, size) pair in
// postorder, io.EOF after the last node, or another error if the
// underlying source fails (e.g. malformed XML mid-stream).
type Queue interface {
	Next() (Item, error)
}

// SliceQueue is an in-memory Queue over a fixed item slice.
type SliceQueue struct {
	items []Item
	pos   int
}

// NewSliceQueue returns a Queue that yields the given items in order.
func NewSliceQueue(items []Item) *SliceQueue {
	return &SliceQueue{items: items}
}

// Next implements Queue.
func (q *SliceQueue) Next() (Item, error) {
	if q.pos >= len(q.items) {
		return Item{}, io.EOF
	}
	it := q.items[q.pos]
	q.pos++
	return it, nil
}

// Items returns the postorder queue of t as a slice (Definition 2 written
// out in full, like Figure 4b of the paper).
func Items(t *tree.Tree) []Item {
	items := make([]Item, t.Size())
	for i := 0; i < t.Size(); i++ {
		items[i] = Item{Label: t.LabelID(i), Size: t.SubtreeSize(i)}
	}
	return items
}

// FromTree returns a Queue streaming the nodes of t in postorder.
func FromTree(t *tree.Tree) Queue {
	return NewSliceQueue(Items(t))
}

// Collect drains q and returns all remaining items. It is mainly useful in
// tests; production code should consume queues incrementally.
func Collect(q Queue) ([]Item, error) {
	var items []Item
	for {
		it, err := q.Next()
		if errors.Is(err, io.EOF) {
			return items, nil
		}
		if err != nil {
			return items, err
		}
		items = append(items, it)
	}
}

// BuildTree materializes the tree defined by a postorder queue. It returns
// an error if the stream does not encode a single well-formed tree — the
// check tree.FromPostorder shares with the candidate views — or carries a
// label id d does not hold.
func BuildTree(d dict.Dict, q Queue) (*tree.Tree, error) {
	var labels, sizes []int
	for {
		it, err := q.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if it.Label < 0 || it.Label >= d.Len() {
			return nil, fmt.Errorf("postorder: node %d has label id %d, not in the dictionary", len(labels)+1, it.Label)
		}
		labels = append(labels, it.Label)
		sizes = append(sizes, it.Size)
	}
	return tree.FromPostorder(d, labels, sizes)
}

// Validate drains q checking that it encodes a single well-formed tree
// without materializing it. It returns the node count on success.
func Validate(q Queue) (int, error) {
	var stack []int // sizes of completed subtrees
	n := 0
	for {
		it, err := q.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, err
		}
		n++
		if it.Size < 1 {
			return n, fmt.Errorf("postorder: node %d has size %d, want ≥ 1", n, it.Size)
		}
		need := it.Size - 1
		for need > 0 {
			if len(stack) == 0 {
				return n, fmt.Errorf("postorder: node %d (size %d) needs more descendants than available", n, it.Size)
			}
			top := stack[len(stack)-1]
			if top > need {
				return n, fmt.Errorf("postorder: node %d (size %d) splits subtree of size %d", n, it.Size, top)
			}
			stack = stack[:len(stack)-1]
			need -= top
		}
		stack = append(stack, it.Size)
	}
	if len(stack) != 1 {
		return n, fmt.Errorf("postorder: stream encodes %d trees, want exactly 1", len(stack))
	}
	return n, nil
}
