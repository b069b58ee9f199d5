// Package ted computes the tree edit distance between ordered labeled
// trees with the dynamic-programming algorithm of Zhang and Shasha
// (SIAM J. Computing 1989), the algorithm the TASM paper builds on
// (Section IV-E).
//
// The algorithm decomposes both trees into their relevant subtrees (rooted
// at the LR-keyroots) and computes, for every pair of keyroots, the edit
// distance between all pairs of prefixes of the two subtrees. Prefix pairs
// that are themselves whole subtrees are recorded in the permanent tree
// distance matrix td, so a single run yields the distance between every
// pair of subtrees of the two inputs — the property TASM-dynamic exploits:
// the last row of td holds the distance from the whole query to every
// subtree of the document.
//
// # Flat candidate views
//
// The document side of a computation may be a materialized tree.Tree or a
// flat tree.View (EvaluateView). The view path is the hot path of
// TASM-postorder: a Computer keeps all of its working state — the
// stride-indexed 1-D fd/td backings, the per-document cost and label
// scratch — across calls, and a View caches its keyroots across the
// evaluations of one fill, so evaluating a candidate in steady state
// performs zero heap allocations. Document labels are resolved into the
// query's dictionary once per run (an alias when the dictionaries are
// shared), so the per-cell rename check is a single integer comparison.
//
// One forest-distance body serves every evaluation. It is bounded by a
// cutoff — +Inf for the exact distances — behind a ladder of sound lower
// bounds that end hopeless work early (EvaluateView), and it is written
// over a cell type: int32 under the unit cost model, float64 otherwise.
package ted

import (
	"math"

	"tasm/internal/cost"
	"tasm/internal/dict"
	"tasm/internal/prb"
	"tasm/internal/tree"
)

// Probe receives instrumentation callbacks from distance computations.
// It exists to reproduce Figures 11 and 12 of the paper, which count the
// relevant subtrees (per size) a TASM algorithm evaluates.
type Probe interface {
	// RelevantSubtree is called once for every relevant subtree of the
	// document-side tree whose prefix distances are computed, with the
	// subtree's size.
	RelevantSubtree(size int)
}

// Outcome says how a bounded evaluation ended; see EvaluateView.
type Outcome uint8

const (
	// Completed: every keyroot pair ran to its last row.
	Completed Outcome = iota
	// Aborted: the dynamic program started, and at least one keyroot pair
	// was abandoned because a whole forest-distance row exceeded the
	// cutoff (rung 1).
	Aborted
	// Gated: the label-bag bound of the whole view exceeded the cutoff
	// (rung 0) and the dynamic program never started.
	Gated
)

// Computer computes tree edit distances between a fixed query and
// documents under a fixed cost model, reusing internal buffers across
// calls. It is the unit of work TASM-postorder performs per candidate
// subtree, so avoiding per-call allocation matters: in steady state (all
// scratch grown to the largest document seen) a call evaluating a
// tree.View allocates nothing.
//
// The dynamic program is written once over a cell type (kernel) and runs
// in int32 under cost.Unit — unit-cost distances are integers — and in
// float64 under every other model; exactly one of unit and weighted is
// set.
//
// A Computer is not safe for concurrent use.
type Computer struct {
	model cost.Model
	q     *tree.Tree
	qKey  []int     // keyroots of the query
	qCost []float64 // per-node model costs of the query
	qLab  []int     // interned labels of the query (alias of q's array)
	qLML  []int     // leftmost leaves of the query (alias of q's array)

	unit     *kernel[int32]
	weighted *kernel[float64]

	// hist is the query's label bag, behind rung 0 of EvaluateView and
	// lent to the owning scan's candidate gate (LabelHist).
	hist *prb.LabelHist
	// memo holds the rows of the views evaluated so far; nil when rows
	// cannot be memoised (newMemo).
	memo *memo

	// Document labels of the current run resolved into the query's
	// dictionary (-1 for labels the query's dictionary does not know).
	// tLab aliases the document's label array when dictionaries are
	// shared; tLabScratch is the owned buffer for the translating path.
	tLab        []int
	tLabScratch []int

	// out backs every returned distance row.
	out []float64

	probe Probe
}

// NewComputer returns a Computer for query q under model m.
// The query must be non-empty.
func NewComputer(m cost.Model, q *tree.Tree) *Computer {
	c := &Computer{model: m, q: q, qKey: q.Keyroots(), qLab: q.LabelIDs(), qLML: q.LMLs(), hist: prb.NewLabelHist(q)}
	c.qCost = make([]float64, q.Size())
	for i := range c.qCost {
		c.qCost[i] = m.Cost(q, i)
	}
	if _, unit := m.(cost.Unit); unit {
		c.unit = newKernel[int32](c.qCost, unitOver)
		c.memo = newMemo(q.Size())
	} else {
		c.weighted = newKernel(c.qCost, math.Inf(1))
	}
	return c
}

// SetProbe installs a probe receiving relevant-subtree callbacks; nil
// disables instrumentation (the default).
func (c *Computer) SetProbe(p Probe) { c.probe = p }

// Query returns the query tree the computer was built for.
func (c *Computer) Query() *tree.Tree { return c.q }

// LabelHist returns the histogram of the query's labels behind rung 0 of
// EvaluateView. Its one-shot bounds leave the window empty, so the scan
// that owns the computer runs its candidate gate on the same histogram
// instead of building a second one.
func (c *Computer) LabelHist() *prb.LabelHist { return c.hist }

// Distance returns δ(Q, T), the tree edit distance between the query and t.
func (c *Computer) Distance(t *tree.Tree) float64 {
	c.run(t)
	return c.tdAt(c.q.Size()-1, t.Size()-1)
}

// SubtreeDistances returns the distance from the whole query Q to every
// subtree T_j of t: row Q of the tree distance matrix (Figure 3 of the
// paper). Index j of the result corresponds to the subtree rooted at
// postorder node j of t. The returned slice is valid until the next call
// on the computer.
func (c *Computer) SubtreeDistances(t *tree.Tree) []float64 {
	return c.run(t)
}

// SubtreeDistancesView is SubtreeDistances for a flat view: EvaluateView
// without a cutoff.
//
//tasm:hotpath
func (c *Computer) SubtreeDistancesView(v *tree.View) []float64 {
	row, _, _ := c.EvaluateView(v, math.Inf(1))
	return row
}

// SubtreeDistancesViewBounded is EvaluateView reporting only whether the
// evaluation was cut short (gated or aborted).
//
//tasm:hotpath
func (c *Computer) SubtreeDistancesViewBounded(v *tree.View, cutoff float64) ([]float64, bool) {
	row, o, _ := c.EvaluateView(v, cutoff)
	return row, o != Completed
}

// EvaluateView is one TASM-dynamic evaluation of a flat view — the hot
// path of TASM-postorder — bounded by cutoff: entry j of the returned row
// is δ(Q, V_j) exactly when that distance is ≤ cutoff and +Inf otherwise,
// so a caller that discards distances above the cutoff (a full top-k
// ranking whose k-th distance is the cutoff) observes the unbounded
// result. The row is valid until the next call on the computer and must
// not be written to; in steady state the call allocates nothing.
//
// Every sound lower bound that can end the evaluation early lives here,
// cheapest first. They rest on node costs being ≥ 1 (Definition 4;
// cost.Validate enforces it).
//
// Rung 0, the label bag of the view: a query node that an edit mapping
// does not map onto an equally labelled node is deleted (cost ≥ 1) or
// renamed (the mean of two costs ≥ 1), and a subtree V_j can offer at
// most |bag(Q) ∩ bag(V_j)| ≤ |bag(Q) ∩ bag(V)| equally labelled partners,
// so δ(Q, V_j) ≥ |Q| − |bag(Q) ∩ bag(V)| for every j. When that exceeds
// the cutoff the whole row does, and it is returned without touching the
// dynamic program (Gated).
//
// Rung 1, the row minimum: within one keyroot pair every cell of a later
// row is lower-bounded by the minimum of any earlier row (restricting an
// optimal mapping of the larger prefix pair to a smaller query prefix
// yields a cheaper mapping onto some view prefix), so once a whole row
// exceeds the cutoff the pair is abandoned (Aborted).
//
// The tree distances an abandoned pair never writes keep an over-cutoff
// sentinel (see kernel.run). Substituting a value > cutoff for a cell
// whose true value is > cutoff preserves the contract inductively: every
// cell is a minimum of sums of non-negative terms, so computed values
// never fall below the true ones, and a cell whose true value is ≤ cutoff
// has an optimal predecessor chain of cells that are themselves ≤ cutoff,
// hence exact.
//
// Between rung 0 and the dynamic program sits the memo (see memo): under
// cost.Unit the row is a function of the view's canonical signature, which
// the pass that computes rung 0's bound also produces, so a view whose
// signature the computer has already evaluated under a cutoff at least as
// loose is answered from the stored row — masked to the current cutoff —
// without running the dynamic program. Such a hit is still an evaluation:
// it reports the outcome its row was computed with, and memoHit. A probe
// (SetProbe) bypasses the memo, so instrumented runs count every relevant
// subtree the algorithm evaluates.
//
// The cutoff may be any float64: NaN and +Inf mean unbounded (no rung
// fires, every entry exact, Completed); a negative cutoff gates every
// view; a fractional one is exact at and below itself; one at or above
// every possible distance behaves as unbounded.
//
//tasm:hotpath
func (c *Computer) EvaluateView(v *tree.View, cutoff float64) (row []float64, outcome Outcome, memoHit bool) {
	c.resolveLabels(v.Dict(), v.LabelIDs())
	n := v.Size()
	mm := c.memo
	if c.probe != nil || n > memoMaxView {
		mm = nil
	}
	if !(cutoff < math.Inf(1)) { // +Inf or NaN
		cutoff = math.Inf(1)
	}
	var slot *memoSlot
	if mm != nil || cutoff < math.Inf(1) {
		bound, hash := c.hist.Signature(c.tLab, v.Sizes(), mm.head(n))
		if float64(bound) > cutoff {
			row = c.row(n)
			for j := range row {
				row[j] = math.Inf(1)
			}
			return row, Gated, false
		}
		if slot = mm.lookup(hash, n); slot != nil && slot.cutoff >= unitCutoff(cutoff) {
			row = c.row(n)
			mm.load(slot, row, unitCutoff(cutoff))
			return row, slot.outcome, true
		}
	}
	var t *tree.Tree
	if c.weighted != nil {
		t = v.Tree() //tasm:allow alloc — non-unit cost models read labels through the aliased shell tree; unit-cost scans never take this branch
	}
	row, outcome = c.dp(t, v.LMLs(), v.Keyroots(), n, cutoff)
	if slot != nil {
		mm.store(slot, row, unitCutoff(cutoff), outcome)
	}
	return row, outcome, false
}

// Matrix returns the full tree distance matrix td where td[i][j] is the
// distance between the query subtree rooted at its postorder node i and
// the document subtree rooted at postorder node j.
func (c *Computer) Matrix(t *tree.Tree) [][]float64 {
	c.run(t)
	out := allocMatrix(c.q.Size(), t.Size())
	for i, row := range out {
		for j := range row {
			row[j] = c.tdAt(i, j)
		}
	}
	return out
}

// tdAt returns td[i][j] of the last run's tree distance matrix.
func (c *Computer) tdAt(i, j int) float64 {
	if c.unit != nil {
		return c.unit.at(i, j)
	}
	return c.weighted.at(i, j)
}

// row returns the output row sized for n entries.
func (c *Computer) row(n int) []float64 {
	if cap(c.out) < n {
		c.out = make([]float64, max(n, 2*cap(c.out))) //tasm:allow alloc — grow-only scratch: reallocates only when a document exceeds every prior size
	}
	return c.out[:n]
}

// run executes the unbounded dynamic program for (c.q, t) and returns
// row Q of the tree distance matrix.
func (c *Computer) run(t *tree.Tree) []float64 {
	c.resolveLabels(t.Dict(), t.LabelIDs())
	row, _ := c.dp(t, t.LMLs(), t.Keyroots(), t.Size(), math.Inf(1))
	return row
}

// dp runs the kernel of the computer's model over a document of n nodes
// given by its leftmost leaves and keyroots, with its labels already
// resolved, and returns row Q widened to float64. t supplies node costs
// to a non-unit model.
func (c *Computer) dp(t *tree.Tree, tLML, tKey []int, n int, cutoff float64) ([]float64, Outcome) {
	if c.probe != nil {
		for _, kt := range tKey {
			c.probe.RelevantSubtree(kt - tLML[kt] + 1)
		}
	}
	row := c.row(n)
	aborted := false
	if k := c.unit; k != nil {
		if c.q.Size()+n >= unitOver {
			panic("ted: document too large for the int32 kernel") // its td alone would exceed 2 GiB per query node
		}
		k.ensure(n)
		for j := range k.tCost {
			k.tCost[j] = 1
		}
		aborted = k.run(c, tLML, tKey, row, unitCutoff(cutoff))
	} else {
		k := c.weighted
		k.ensure(n)
		for j := range k.tCost {
			k.tCost[j] = c.model.Cost(t, j)
		}
		aborted = k.run(c, tLML, tKey, row, cutoff)
	}
	if aborted {
		return row, Aborted
	}
	return row, Completed
}

// resolveLabels resolves document labels interned in d into the query's
// dictionary for the coming run: an alias when the dictionaries are
// shared, otherwise ids (or -1 for unknown labels) written into the owned
// scratch. Query label ids are ≥ 0, so -1 never compares equal, and the
// per-cell rename check is a single integer comparison either way.
func (c *Computer) resolveLabels(d dict.Dict, labels []int) {
	qd := c.q.Dict()
	if d == qd {
		c.tLab = labels
		return
	}
	s := c.tLabScratch
	if cap(s) < len(labels) {
		s = make([]int, len(labels)) //tasm:allow alloc — grow-only scratch: reallocates only when a document exceeds every prior size
	}
	s = s[:len(labels)]
	for j, id := range labels {
		if qid, ok := qd.Lookup(d.Label(id)); ok {
			s[j] = qid
		} else {
			s[j] = -1
		}
	}
	c.tLabScratch, c.tLab = s, s
}

// cell is the number type of the dynamic program.
type cell interface{ int32 | float64 }

// unitOver is the int32 kernel's over-cutoff sentinel, and the bound on
// m+n it serves. Sums cannot overflow: a forest distance is at most m+n
// (delete one forest, insert the other), a tree distance is one of those
// or the sentinel, and a sum adds at most one of each.
const unitOver = 1 << 29

// unitCutoff is a non-negative cutoff in the int32 kernel's domain: unit
// distances are integers below unitOver, so flooring the cutoff changes no
// comparison, and one at or above unitOver is unbounded.
func unitCutoff(cutoff float64) int32 { return int32(math.Min(cutoff, unitOver)) }

// kernel is the Zhang–Shasha working state over one cell type: the
// forest-distance working matrix fd, (m+1) rows of fdCols entries; the
// permanent tree distance matrix td, m rows of tdCols; and the node costs
// of the query and of the current document. fd, td and tCost are carved
// from one backing grown on demand.
type kernel[C cell] struct {
	over   C // the over-cutoff sentinel: +Inf, or unitOver
	qCost  []C
	tCost  []C
	fd     []C
	fdCols int
	td     []C
	tdCols int
}

func newKernel[C cell](qCost []float64, over C) *kernel[C] {
	k := &kernel[C]{over: over, qCost: make([]C, len(qCost))}
	for i, c := range qCost {
		k.qCost[i] = C(c)
	}
	return k
}

// at returns td[i][j].
func (k *kernel[C]) at(i, j int) float64 { return float64(k.td[i*k.tdCols+j]) }

// ensure grows the working state for a document of n nodes and sizes
// tCost to n. Growth is geometric so a scan whose candidate sizes creep
// upward reallocates O(log τ) times, not O(candidates).
func (k *kernel[C]) ensure(n int) {
	if k.tdCols < n {
		m, cols := len(k.qCost), max(n, 2*k.tdCols)
		fd, td := (m+1)*(cols+1), m*cols
		slab := make([]C, fd+td+cols) //tasm:allow alloc — grow-only scratch: reallocates only when a document exceeds every prior size
		k.fd, k.td, k.tCost = slab[:fd], slab[fd:fd+td], slab[fd+td:]
		k.fdCols, k.tdCols = cols+1, cols
	}
	k.tCost = k.tCost[:n]
}

// run is the keyroot double loop over the prepared per-run state,
// writing row Q of td to dst as float64 with over-cutoff entries as +Inf.
// The sentinel as cutoff means unbounded; below it, td is first filled
// with the sentinel, so a tree distance in the abandoned rows of an
// aborted pair already reads as over the cutoff, to later pairs and in
// dst. It reports whether any pair aborted.
func (k *kernel[C]) run(c *Computer, tLML, tKey []int, dst []float64, cutoff C) bool {
	m, n := len(k.qCost), len(k.tCost)
	if cutoff < k.over {
		for i := 0; i < m; i++ {
			row := k.td[i*k.tdCols : i*k.tdCols+n]
			for j := range row {
				row[j] = k.over
			}
		}
	}
	aborted := false
	for _, kq := range c.qKey {
		lq := c.qLML[kq]
		for _, kt := range tKey {
			if !k.forestDist(c, tLML, kq, lq, kt, tLML[kt], cutoff) {
				aborted = true
			}
		}
	}
	for j, d := range k.td[(m-1)*k.tdCols : (m-1)*k.tdCols+n] {
		if d > cutoff {
			dst[j] = math.Inf(1)
		} else {
			dst[j] = float64(d)
		}
	}
	return aborted
}

// forestDist fills the forest distance matrix for the keyroot pair
// (kq, kt) and records tree distances for prefix pairs that are whole
// subtrees. Forest indices are 1-based offsets relative to the leftmost
// leaves lq and lt; row/column 0 is the empty forest. Once a whole row
// exceeds the cutoff the pair is abandoned and false returned. All state
// is read through local slice headers over the flat backings so the inner
// loop is free of pointer chasing and per-cell dictionary checks.
func (k *kernel[C]) forestDist(c *Computer, tLML []int, kq, lq, kt, lt int, cutoff C) bool {
	fd, fw := k.fd, k.fdCols
	qCost, qLab, qLML := k.qCost, c.qLab, c.qLML
	width := kt - lt + 1
	// The view side of the pair as windows starting at lt: index x is
	// node lt+x, forest column x+1.
	tCost, tLab, tLML := k.tCost[lt:kt+1], c.tLab[lt:kt+1], tLML[lt:kt+1]

	fd[0] = 0
	for i := lq; i <= kq; i++ {
		fd[(i-lq+1)*fw] = fd[(i-lq)*fw] + qCost[i] // delete q_i
	}
	for x, tc := range tCost {
		fd[x+1] = fd[x] + tc // insert t_j
	}
	for i := lq; i <= kq; i++ {
		di := i - lq + 1
		row := fd[di*fw : di*fw+width+1]
		prev := fd[(di-1)*fw : (di-1)*fw+width+1]
		qc, ql := qCost[i], qLab[i]
		// treeLML is the leftmost leaf a view node must have for the cell
		// to pair two whole subtrees; none does when the query prefix is a
		// proper forest.
		treeLML := -1
		if qLML[i] == lq {
			treeLML = lt
		}
		sub := fd[(qLML[i]-lq)*fw:]
		tdRow := k.td[i*k.tdCols+lt : i*k.tdCols+lt+width]
		left := row[0] // column 0: delete the whole query prefix
		rowMin := left
		for x := 0; x < width; x++ {
			del := prev[x+1] + qc
			ins := left + tCost[x]
			if tLML[x] == treeLML {
				// Both prefixes are whole subtrees: the third option is a
				// rename (or match) of the two roots. Labels were resolved
				// into one dictionary per run, so this is an id compare.
				ren := prev[x]
				if ql != tLab[x] {
					ren += (qc + tCost[x]) / 2
				}
				left = min3(del, ins, ren)
				tdRow[x] = left
			} else {
				// At least one prefix is a proper forest: the third option
				// aligns the two rightmost subtrees using the already
				// computed tree distance.
				left = min3(del, ins, sub[tLML[x]-lt]+tdRow[x])
			}
			row[x+1] = left
			if left < rowMin {
				rowMin = left
			}
		}
		if rowMin > cutoff && i < kq {
			return false
		}
	}
	return true
}

func min3[C cell](a, b, c C) C {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Distance is a convenience wrapper computing δ(q, t) with a fresh
// Computer. Prefer a long-lived Computer when evaluating one query against
// many documents.
func Distance(m cost.Model, q, t *tree.Tree) float64 {
	return NewComputer(m, q).Distance(t)
}
