package ted

import (
	"fmt"
	"math"

	"tasm/internal/tree"
)

// Op is the kind of one edit operation.
type Op int

const (
	// OpMatch aligns two equally labeled nodes at zero cost.
	OpMatch Op = iota
	// OpRename aligns two differently labeled nodes.
	OpRename
	// OpDelete removes a query node.
	OpDelete
	// OpInsert adds a document node.
	OpInsert
)

// String returns the conventional name of the operation.
func (o Op) String() string {
	switch o {
	case OpMatch:
		return "match"
	case OpRename:
		return "rename"
	case OpDelete:
		return "delete"
	case OpInsert:
		return "insert"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// EditOp is one operation of an optimal edit script between the query and
// a document tree: a node alignment of the least costly edit mapping
// (Definitions 3–6 of the paper). QNode and TNode are 0-based postorder
// indices; QNode is -1 for inserts, TNode is -1 for deletes.
type EditOp struct {
	Op           Op
	QNode, TNode int
	Cost         float64
}

// EditScript returns an optimal edit script transforming the query into t,
// in descending postorder of the involved nodes. The sum of the operation
// costs equals Distance(t). The script is recovered by re-running the
// forest dynamic program along the optimal path, so it costs about as much
// as a second distance computation.
func (c *Computer) EditScript(t *tree.Tree) []EditOp {
	c.run(t) // fills td for every subtree pair; tLab stays valid
	b := &backtracker{c: c, t: t, tCost: make([]float64, t.Size())}
	for j := range b.tCost {
		b.tCost[j] = c.model.Cost(t, j)
	}
	b.treePair(c.q.Root(), t.Root())
	return b.ops
}

type backtracker struct {
	c     *Computer
	t     *tree.Tree
	tCost []float64 // model costs of t's nodes
	ops   []EditOp
}

const eps = 1e-9

// treePair emits the operations aligning query subtree Q_i with document
// subtree T_j. It recomputes the forest-distance matrix of the pair's
// leftmost-leaf frame and walks the optimal path backwards.
func (b *backtracker) treePair(i, j int) {
	q, t := b.c.q, b.t
	lq, lt := q.LML(i), t.LML(j)
	fd := b.forestMatrix(i, j)

	x, y := i, j
	for x >= lq || y >= lt {
		dx, dy := x-lq+1, y-lt+1
		switch {
		case x >= lq && close(fd[dx][dy], fd[dx-1][dy]+b.c.qCost[x]):
			b.ops = append(b.ops, EditOp{Op: OpDelete, QNode: x, TNode: -1, Cost: b.c.qCost[x]})
			x--
		case y >= lt && close(fd[dx][dy], fd[dx][dy-1]+b.tCost[y]):
			b.ops = append(b.ops, EditOp{Op: OpInsert, QNode: -1, TNode: y, Cost: b.tCost[y]})
			y--
		case q.LML(x) == lq && t.LML(y) == lt:
			// Whole-subtree prefixes: the roots align directly.
			cost := b.renameCost(x, y)
			op := OpRename
			if cost == 0 {
				op = OpMatch
			}
			b.ops = append(b.ops, EditOp{Op: op, QNode: x, TNode: y, Cost: cost})
			x--
			y--
		default:
			// The rightmost subtrees align as a unit via the tree
			// distance; recurse into that pair, then skip both subtrees.
			b.treePair(x, y)
			x = q.LML(x) - 1
			y = t.LML(y) - 1
		}
	}
}

// forestMatrix recomputes the forest distance matrix for the keyroot frame
// rooted at (i, j): distances between prefixes of Q[lml(i)..i] and
// T[lml(j)..j], using the already filled tree distance matrix for inner
// subtree pairs. It mirrors kernel.forestDist but into a private matrix
// so recursion does not clobber shared state.
func (b *backtracker) forestMatrix(i, j int) [][]float64 {
	q, t := b.c.q, b.t
	lq, lt := q.LML(i), t.LML(j)
	fd := allocMatrix(i-lq+2, j-lt+2)
	fd[0][0] = 0
	for x := lq; x <= i; x++ {
		fd[x-lq+1][0] = fd[x-lq][0] + b.c.qCost[x]
	}
	for y := lt; y <= j; y++ {
		fd[0][y-lt+1] = fd[0][y-lt] + b.tCost[y]
	}
	for x := lq; x <= i; x++ {
		dx := x - lq + 1
		for y := lt; y <= j; y++ {
			dy := y - lt + 1
			del := fd[dx-1][dy] + b.c.qCost[x]
			ins := fd[dx][dy-1] + b.tCost[y]
			if q.LML(x) == lq && t.LML(y) == lt {
				ren := fd[dx-1][dy-1] + b.renameCost(x, y)
				fd[dx][dy] = min3(del, ins, ren)
			} else {
				sub := fd[q.LML(x)-lq][t.LML(y)-lt] + b.c.tdAt(x, y)
				fd[dx][dy] = min3(del, ins, sub)
			}
		}
	}
	return fd
}

// renameCost returns γ(q_x, t_y) for two non-empty nodes (Definition 4)
// using the run's resolved labels: 0 on equal labels, the mean node cost
// otherwise.
func (b *backtracker) renameCost(x, y int) float64 {
	if b.c.qLab[x] == b.c.tLab[y] {
		return 0
	}
	return (b.c.qCost[x] + b.tCost[y]) / 2
}

// allocMatrix allocates a rows×cols matrix backed by one contiguous slice.
// Only the backtracker and Computer.Matrix need 2-D views; the kernel's
// own matrices are flat (see zhangshasha.go).
func allocMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}

func close(a, b float64) bool { return math.Abs(a-b) <= eps }
