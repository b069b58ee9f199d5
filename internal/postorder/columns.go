package postorder

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Columns is a whole document held as two random-access postorder
// columns: node i (0-based; postorder id i+1) has label labels[i] and
// subtree size sizes[i]. It is the resident counterpart of a Queue. A
// Queue can only be dequeued, which is why the scan needs the prefix ring
// buffer to find candidate subtrees; with the sizes addressable, the
// leftmost leaf of node id is id − sizes[id−1] + 1 and the candidate set
// falls out of index arithmetic (prb.Cursor).
//
// Beside the columns sit the document's label postings, the label column
// inverted: for every distinct label, the postorder ids of the nodes that
// carry it, ascending. They are three flat arrays in compressed-sparse-row
// form — the distinct label ids ascending (keys), the start of each
// label's run (offs, with a final entry n), and the runs (post) — so a
// label's nodes are one binary search away, and a scan that wants only
// the few nodes carrying a query's labels need not read the rest
// (prb.Cursor's candidate gate).
//
// A Columns value only ever comes from BuildColumns, so holding one is
// proof that the sizes tile into well-formed trees — consumers index it
// without re-checking. It is immutable and safe for concurrent use.
type Columns struct {
	labels []int32
	sizes  []int32
	keys   []int32 // distinct label ids, ascending
	offs   []int32 // len(keys)+1: label keys[j]'s ids are post[offs[j]:offs[j+1]]
	post   []int32 // every postorder id once, grouped by label, ascending within a label
}

// Len returns the number of nodes.
func (c *Columns) Len() int { return len(c.labels) }

// Labels returns the label column. Read-only.
func (c *Columns) Labels() []int32 { return c.labels }

// Sizes returns the subtree-size column. Read-only.
func (c *Columns) Sizes() []int32 { return c.sizes }

// Postings returns the 1-based postorder ids of the nodes labelled label,
// ascending; nil when no node is. Read-only.
func (c *Columns) Postings(label int) []int32 {
	if label < 0 || label > math.MaxInt32 {
		return nil
	}
	j, ok := slices.BinarySearch(c.keys, int32(label))
	if !ok {
		return nil
	}
	return c.post[c.offs[j]:c.offs[j+1]]
}

// Bytes returns the heap footprint of the columns and postings: 12 bytes
// per node (label, size, posting) and 8 per distinct label (key, offset),
// plus the final offset.
func (c *Columns) Bytes() int64 {
	return 4 * int64(len(c.labels)+len(c.sizes)+len(c.post)+len(c.keys)+len(c.offs))
}

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
			c.invert()
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

// invert builds the label postings from the label column, by one of two
// routes that build the same arrays. When the document's label ids span
// no more values than it has nodes — a document interned into a
// dictionary of about its own vocabulary, as every XMark document of the
// bench is — a counting sort over that span places every id in two
// passes, with a count array no larger than the postings themselves,
// freed on return. Otherwise (a small document whose few labels lie far
// apart in a large shared dictionary) the ids are sorted in place by
// (label, id), which needs no memory beyond the postings, at about forty
// times the counting sort's cost per node (135 against 3.4 ns on a
// 9.8k-node document, 2-vCPU x86-64 VM).
func (c *Columns) invert() {
	c.post = make([]int32, len(c.labels))
	if len(c.labels) == 0 {
		c.offs = []int32{0}
		return
	}
	lo, hi := slices.Min(c.labels), slices.Max(c.labels)
	if int(hi-lo) < len(c.labels) {
		c.invertByCount(lo, int(hi-lo)+1)
	} else {
		c.invertBySort()
	}
}

// invertByCount is invert's counting sort over the label ids lo..lo+span−1.
func (c *Columns) invertByCount(lo int32, span int) {
	next := make([]int32, span) // per label id: its count, then where its next id goes
	for _, l := range c.labels {
		next[l-lo]++
	}
	distinct := 0
	for _, n := range next {
		if n > 0 {
			distinct++
		}
	}
	c.keys = make([]int32, 0, distinct)
	c.offs = make([]int32, 0, distinct+1)
	at := int32(0)
	for v, n := range next {
		if n > 0 {
			c.keys = append(c.keys, lo+int32(v))
			c.offs = append(c.offs, at)
			next[v], at = at, at+n
		}
	}
	c.offs = append(c.offs, at)
	for i, l := range c.labels {
		c.post[next[l-lo]] = int32(i + 1)
		next[l-lo]++
	}
}

// invertBySort is invert's in-place sort by (label, id).
func (c *Columns) invertBySort() {
	labels := c.labels
	for i := range c.post {
		c.post[i] = int32(i + 1)
	}
	slices.SortFunc(c.post, func(a, b int32) int {
		if la, lb := labels[a-1], labels[b-1]; la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a, b)
	})
	distinct := 0
	for i, id := range c.post {
		if i == 0 || labels[id-1] != labels[c.post[i-1]-1] {
			distinct++
		}
	}
	c.keys = make([]int32, 0, distinct)
	c.offs = make([]int32, 0, distinct+1)
	for i, id := range c.post {
		if l := labels[id-1]; i == 0 || l != c.keys[len(c.keys)-1] {
			c.keys = append(c.keys, l)
			c.offs = append(c.offs, int32(i))
		}
	}
	c.offs = append(c.offs, int32(len(c.post)))
}
