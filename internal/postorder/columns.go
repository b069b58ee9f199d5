package postorder

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Columns is a whole document held as two random-access postorder
// columns: node i (0-based; postorder id i+1) has label labels[i] and
// subtree size sizes[i]. It is the resident counterpart of a Queue. A
// Queue can only be dequeued, which is why the scan needs the prefix ring
// buffer to find candidate subtrees; with the sizes addressable, the
// leftmost leaf of node id is id − sizes[id−1] + 1 and the candidate set
// falls out of index arithmetic (prb.Cursor).
//
// A Columns value only ever comes from BuildColumns, so holding one is
// proof that the sizes tile into well-formed trees — consumers index it
// without re-checking. It is immutable and safe for concurrent use.
type Columns struct {
	labels []int32
	sizes  []int32
}

// Len returns the number of nodes.
func (c *Columns) Len() int { return len(c.labels) }

// Labels returns the label column. Read-only.
func (c *Columns) Labels() []int32 { return c.labels }

// Sizes returns the subtree-size column. Read-only.
func (c *Columns) Sizes() []int32 { return c.sizes }

// Bytes returns the heap footprint of the two columns: 8 bytes per node.
func (c *Columns) Bytes() int64 { return 8 * int64(len(c.labels)) }

// BuildColumns drains q into columns, refusing anything the scan could
// not index blindly: a label id or node count outside int32, a subtree
// size outside [1, position], and sizes that do not tile — a node whose
// subtree would start inside an earlier subtree. A forest of several
// roots is accepted, as by the ring-buffer scan, which ranks the roots as
// siblings. capHint sizes the initial allocation; callers with an
// untrusted node count bound it by the bytes actually present.
func BuildColumns(q Queue, capHint int) (*Columns, error) {
	c := &Columns{
		labels: make([]int32, 0, capHint),
		sizes:  make([]int32, 0, capHint),
	}
	// Roots of the completed subtrees not yet adopted by a parent, by
	// 0-based position. Before node i they tile [0, i−1] exactly, the
	// rightmost ending at i−1, so node i is well-formed iff popping the
	// roots inside its interval lands exactly on its leftmost leaf.
	var open []int32
	for {
		it, err := q.Next()
		if errors.Is(err, io.EOF) {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		i := len(c.labels)
		if i == math.MaxInt32 {
			return nil, fmt.Errorf("postorder: document exceeds %d nodes", math.MaxInt32)
		}
		if it.Label < 0 || it.Label > math.MaxInt32 {
			return nil, fmt.Errorf("postorder: node %d has label id %d outside int32", i+1, it.Label)
		}
		if it.Size < 1 || it.Size > i+1 {
			return nil, fmt.Errorf("postorder: node %d has subtree size %d, want 1..%d", i+1, it.Size, i+1)
		}
		lml := i - it.Size + 1
		cover := i - 1
		for len(open) > 0 && int(open[len(open)-1]) >= lml {
			top := int(open[len(open)-1])
			open = open[:len(open)-1]
			cover = top - int(c.sizes[top])
		}
		if cover != lml-1 {
			return nil, fmt.Errorf("postorder: node %d (size %d) splits an earlier subtree", i+1, it.Size)
		}
		open = append(open, int32(i))
		c.labels = append(c.labels, int32(it.Label))
		c.sizes = append(c.sizes, int32(it.Size))
	}
}
