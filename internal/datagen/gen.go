// Package datagen generates the synthetic stand-ins for the paper's
// evaluation corpora: XMark auction documents (Section VII-A), and
// DBLP-like and PSD-like documents (Section VII-B). The real corpora are
// multi-gigabyte downloads unavailable offline; these generators preserve
// the structural properties the experiments depend on — node count linear
// in the scale parameter, constant height, shallow-and-wide data-centric
// shape.
//
// Documents are produced as postorder queues by a pull-based emitter whose
// memory is bounded by one record plus the wrapper stack, so the memory
// experiments (Figure 10) measure the algorithms rather than the
// generator. All generation is deterministic in (dataset, scale, seed).
package datagen

import (
	"fmt"
	"io"
	"math/rand"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// group is one wrapper element of a document plan: either an inner node
// with child groups, or a leaf group producing count records.
type group struct {
	label string
	kids  []group
	count int
	make  func(rng *rand.Rand, i int) *tree.Node
}

// Dataset is a generatable document family.
type Dataset struct {
	name string
	root group
}

// Name returns the dataset family name ("xmark", "dblp", "psd").
func (ds *Dataset) Name() string { return ds.name }

// Queue returns a streaming postorder queue of the document, interning
// labels in d. Generation is deterministic in seed.
func (ds *Dataset) Queue(d dict.Dict, seed int64) postorder.Queue {
	return &genQueue{
		dict:  d,
		rng:   rand.New(rand.NewSource(seed)),
		stack: []*frame{{g: &ds.root}},
	}
}

// Tree materializes the whole document; intended for small scales and for
// tests. Large documents should stay streamed.
func (ds *Dataset) Tree(d dict.Dict, seed int64) (*tree.Tree, error) {
	items, err := postorder.Collect(ds.Queue(d, seed))
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(items))
	sizes := make([]int, len(items))
	for i, it := range items {
		labels[i] = it.Label
		sizes[i] = it.Size
	}
	return tree.FromPostorder(d, labels, sizes)
}

// Nodes counts the nodes of the document by draining one generation pass.
func (ds *Dataset) Nodes(seed int64) (int, error) {
	d := dict.New()
	q := ds.Queue(d, seed)
	n := 0
	for {
		_, err := q.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// frame is the generator state for one open wrapper group.
type frame struct {
	g       *group
	kidIdx  int // next child group to open
	recIdx  int // next record to emit
	emitted int // nodes emitted inside this group so far
}

// genQueue is the pull-based postorder emitter.
type genQueue struct {
	dict  dict.Dict
	rng   *rand.Rand
	stack []*frame
	out   []postorder.Item
	pos   int
}

// Next implements postorder.Queue.
func (q *genQueue) Next() (postorder.Item, error) {
	for {
		if q.pos < len(q.out) {
			it := q.out[q.pos]
			q.pos++
			return it, nil
		}
		q.out = q.out[:0]
		q.pos = 0
		if len(q.stack) == 0 {
			return postorder.Item{}, io.EOF
		}
		q.step()
	}
}

// step advances the generator: open the next child group, emit the next
// record, or close the current group.
func (q *genQueue) step() {
	top := q.stack[len(q.stack)-1]
	switch {
	case top.kidIdx < len(top.g.kids):
		kid := &top.g.kids[top.kidIdx]
		top.kidIdx++
		q.stack = append(q.stack, &frame{g: kid})
	case top.recIdx < top.g.count:
		rec := top.g.make(q.rng, top.recIdx)
		top.recIdx++
		n := q.emitNode(rec)
		top.emitted += n
	default:
		// Close the group: emit its own node covering everything inside.
		q.out = append(q.out, postorder.Item{
			Label: q.dict.Intern(top.g.label),
			Size:  top.emitted + 1,
		})
		q.stack = q.stack[:len(q.stack)-1]
		if len(q.stack) > 0 {
			q.stack[len(q.stack)-1].emitted += top.emitted + 1
		}
	}
}

// emitNode appends the postorder items of a materialized record subtree
// and returns its node count.
func (q *genQueue) emitNode(n *tree.Node) int {
	size := 0
	for _, c := range n.Children {
		size += q.emitNode(c)
	}
	size++
	q.out = append(q.out, postorder.Item{Label: q.dict.Intern(n.Label), Size: size})
	return size
}

// QueryFromDocument selects a random existing subtree of doc with size as
// close as possible to want — the paper's query workload ("queries are
// randomly chosen subtrees ... with sizes varying from 4 to 64 nodes").
// Subtrees within 25% of the requested size are preferred; ties and
// misses fall back to the nearest size. The returned query is an
// independent tree sharing doc's dictionary.
func QueryFromDocument(doc *tree.Tree, rng *rand.Rand, want int) (*tree.Tree, error) {
	if want < 1 {
		return nil, fmt.Errorf("datagen: query size must be ≥ 1, got %d", want)
	}
	var exact []int
	best, bestDiff := -1, 1<<62
	lo, hi := want, want+want/4
	for i := 0; i < doc.Size(); i++ {
		sz := doc.SubtreeSize(i)
		if sz >= lo && sz <= hi {
			exact = append(exact, i)
		}
		diff := sz - want
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = i, diff
		}
	}
	if len(exact) > 0 {
		return doc.Subtree(exact[rng.Intn(len(exact))]), nil
	}
	return doc.Subtree(best), nil
}
