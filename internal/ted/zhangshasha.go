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
//
// An evaluation has two halves, which a scan calls apart: ProbeWindow
// reads only the labels and subtree sizes of the document window — in a
// scan of resident columns, slices of them, copied nowhere — and answers
// most evaluations from rung 0 or the memo; Run completes the others with
// the dynamic program over the window built as a view. EvaluateView is
// their composition.
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
	// cutoff (rung 1) — in this run, or in the one whose keyroot columns
	// it loaded from the memo.
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
	// memo holds the view rows and keyroot columns computed so far, owner
	// tagging the computer's own; nil when they cannot be memoised
	// (memoFits, a non-unit model) or the memo has no owner left to lend.
	memo  *Memo
	owner uint16
	// pairs and keyrootHits count, over the computer's lifetime, the
	// keyroot pairs its dynamic programs ran and the keyroots whose
	// columns they loaded from the memo instead.
	pairs, keyrootHits int

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
// The query must be non-empty. A unit-cost computer allocates a memo of
// its own; NewComputerWith shares the caller's.
func NewComputer(m cost.Model, q *tree.Tree) *Computer {
	var mm *Memo
	return NewComputerWith(m, q, &mm)
}

// NewComputerWith is NewComputer on a memo the caller keeps: a computer
// that memoises shares *mm — allocated first when *mm is nil — with the
// other computers lent it since its last Reset, each with entries of its
// own. Computers sharing one memo must not evaluate concurrently. A
// computer that cannot memoise leaves *mm alone, and one lent a memo that
// has served 65,535 computers since its last Reset runs without.
func NewComputerWith(m cost.Model, q *tree.Tree, mm **Memo) *Computer {
	c := &Computer{model: m, q: q, qKey: q.Keyroots(), qLab: q.LabelIDs(), qLML: q.LMLs(), hist: prb.NewLabelHist(q)}
	c.qCost = make([]float64, q.Size())
	for i := range c.qCost {
		c.qCost[i] = m.Cost(q, i)
	}
	if _, unit := m.(cost.Unit); unit {
		c.unit = newKernel[int32](c.qCost, unitOver)
		if memoFits(q.Size()) {
			if *mm == nil {
				*mm = new(Memo)
			}
			if owner, ok := (*mm).lend(); ok {
				c.memo, c.owner = *mm, owner
			}
		}
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
// Between rung 0 and the dynamic program sits the memo (see Memo): under
// cost.Unit the row is a function of the view's canonical signature, which
// the pass that computes rung 0's bound also produces, so a view whose
// signature the computer has already evaluated under a cutoff at least as
// loose is answered from the stored row — masked to the current cutoff —
// without running the dynamic program. Such a hit is still an evaluation:
// it reports the outcome its row was computed with, and memoHit.
//
// Inside the dynamic program the memo works per keyroot. The keyroots of
// the view are the outer loop (any order in which a keyroot's pairs follow
// those of the keyroots in its subtree is a Zhang–Shasha order), and
// before the pairs (·, kt) of a keyroot that is neither the view's root
// nor a leaf run, the signature of kt's subtree is looked up. The columns
// those pairs write — δ(Q_i, V_j) for every query node i and every j on
// kt's left path — are a function of that signature under cost.Unit, and
// a bounded run leaves each of them exact when it is at or below the
// cutoff and above the cutoff otherwise (the argument above, applied to
// the pairs of kt). Columns stored under a cutoff at least as loose as the
// current one therefore satisfy the current run's invariant as they are:
// an exact value stays exact whatever the cutoff, and a value stored as
// over a looser cutoff is over the tighter one too. They are copied into
// td, the pairs of kt are skipped, and a recorded abandoned pair makes the
// outcome Aborted, as the pair would have again (its rows were over the
// looser cutoff). A skipped pair that would abort only under the tighter
// cutoff does not, so an outcome can read Completed where a run without
// the memo reads Aborted; the row cannot differ.
//
// A probe (SetProbe) bypasses the memo, so instrumented runs count every
// relevant subtree the algorithm evaluates.
//
// The cutoff may be any float64: NaN and +Inf mean unbounded (no rung
// fires, every entry exact, Completed); a negative cutoff gates every
// view; a fractional one is exact at and below itself; one at or above
// every possible distance behaves as unbounded.
//
// EvaluateView is the composition of its two halves, which a scan calls
// apart: ProbeWindow, which reads only the view's labels and sizes (rung
// 0, the signature, the memo), and Run, the dynamic program over the
// built view.
//
//tasm:hotpath
func (c *Computer) EvaluateView(v *tree.View, cutoff float64) (row []float64, outcome Outcome, memoHit bool) {
	c.resolveLabels(v.Dict(), v.LabelIDs())
	p := ProbeWindow(c, c.tLab, v.Sizes(), cutoff)
	switch {
	case p.Outcome == Gated:
		row = c.row(p.n)
		for j := range row {
			row[j] = math.Inf(1)
		}
		return row, Gated, false
	case p.MemoHit:
		return p.Row, p.Outcome, true
	}
	row, outcome = c.runView(&p, v)
	return row, outcome, false
}

// Probed is what ProbeWindow found out about a window. Either it answered
// the evaluation — Gated, or a memo hit whose row is Row — or the dynamic
// program must run (Run), and Probed carries the cutoff and the memo slot
// that run stores into.
type Probed struct {
	// Row is a memo hit's row, as EvaluateView would return it; nil
	// otherwise. It is valid until the computer's next evaluation and must
	// not be written to.
	Row []float64
	// Outcome is Gated when rung 0 fired, a memo hit's stored outcome, and
	// Completed when the dynamic program must run.
	Outcome Outcome
	MemoHit bool

	mm     *Memo     // the memo the run looks keyroots up in; nil: none
	slot   *memoSlot // the view's slot, to store the run's row into; nil: none
	cutoff float64   // the cutoff, NaN as +Inf
	n      int       // the window's nodes
}

// Answered reports whether the probe answered the evaluation — rung 0
// gated it, or the memo held its row — so that no dynamic program runs.
func (p *Probed) Answered() bool { return p.Outcome == Gated || p.MemoHit }

// ProbeWindow is the part of EvaluateView that reads nothing but a
// window's labels and subtree sizes: rung 0's label-bag bound, the
// window's canonical signature and the lookup of its row in the memo, all
// in one pass. The labels must be interned in the query's dictionary (an
// id it does not know matches no query label). A scan calls it on a
// window of the document's columns, in place, and fills and builds a view
// only when the probe did not answer (Run). The cutoff is EvaluateView's.
//
//tasm:hotpath
func ProbeWindow[L int | int32](c *Computer, labels, sizes []L, cutoff float64) Probed {
	n := len(labels)
	p := Probed{mm: c.memo, cutoff: cutoff, n: n}
	if c.probe != nil || n > memoMaxView {
		p.mm = nil
	}
	if !(cutoff < math.Inf(1)) { // +Inf or NaN
		p.cutoff = math.Inf(1)
	}
	if p.mm == nil && p.cutoff == math.Inf(1) {
		return p // nothing to bound and nothing to look up
	}
	if bound := prb.Signature(c.hist, labels, sizes, p.mm.head(n)); float64(bound) > p.cutoff {
		p.Outcome = Gated
		return p
	}
	limit := unitCutoff(p.cutoff)
	if p.slot = p.mm.view(c.owner, n); p.slot != nil && p.slot.cutoff >= limit {
		p.Row = c.row(n)
		p.mm.load(p.slot, p.Row, limit)
		p.Outcome, p.MemoHit = p.slot.outcome, true
	}
	return p
}

// Run completes an evaluation that ProbeWindow did not answer: the
// dynamic program over v, the probed window filled and built as a view,
// bounded by the probe's cutoff, its row stored into the memo slot the
// probe found. No evaluation on a computer sharing the memo may come
// between the probe and Run: the memo's head still holds the window's
// signature, whose slices key the keyroot entries. The row is
// EvaluateView's.
//
//tasm:hotpath
func (c *Computer) Run(p *Probed, v *tree.View) ([]float64, Outcome) {
	c.resolveLabels(v.Dict(), v.LabelIDs())
	return c.runView(p, v)
}

// runView is Run with the view's labels already resolved.
func (c *Computer) runView(p *Probed, v *tree.View) ([]float64, Outcome) {
	if p.Answered() || v.Size() != p.n {
		panic("ted: Run on a window the probe answered, or on another window")
	}
	var t *tree.Tree
	if c.weighted != nil {
		t = v.Tree() //tasm:allow alloc — non-unit cost models read labels through the aliased shell tree; unit-cost scans never take this branch
	}
	row, outcome := c.dp(t, p.mm, v.LMLs(), v.Keyroots(), p.n, p.cutoff)
	if p.slot != nil {
		p.mm.store(p.slot, row, unitCutoff(p.cutoff), outcome)
	}
	return row, outcome
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
	row, _ := c.dp(t, nil, t.LMLs(), t.Keyroots(), t.Size(), math.Inf(1))
	return row
}

// dp runs the kernel of the computer's model over a document of n nodes
// given by its leftmost leaves and keyroots, with its labels already
// resolved, and returns row Q widened to float64. t supplies node costs
// to a non-unit model; mm, when not nil, is the unit-cost memo whose head
// holds the document's signature.
func (c *Computer) dp(t *tree.Tree, mm *Memo, tLML, tKey []int, n int, cutoff float64) ([]float64, Outcome) {
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
		aborted = k.run(c, mm, tLML, tKey, row, unitCutoff(cutoff))
	} else {
		k := c.weighted
		k.ensure(n)
		for j := range k.tCost {
			k.tCost[j] = c.model.Cost(t, j)
		}
		aborted = k.run(c, nil, tLML, tKey, row, cutoff)
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

// run is the keyroot double loop over the prepared per-run state, the
// document's keyroots outside, writing row Q of td to dst as float64 with
// over-cutoff entries as +Inf. The sentinel as cutoff means unbounded;
// below it, td is first filled with the sentinel, so a tree distance in
// the abandoned rows of an aborted pair already reads as over the cutoff,
// to later pairs and in dst. With a memo (only ever the int32 kernel's),
// a keyroot that is neither the root nor a leaf is looked up first and its
// columns loaded instead of computed when they are stored under a cutoff
// at least as loose; a computed keyroot's columns are stored. It reports
// whether any pair aborted, or was recorded as aborted with columns it
// loaded.
func (k *kernel[C]) run(c *Computer, mm *Memo, tLML, tKey []int, dst []float64, cutoff C) bool {
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
	for _, kt := range tKey {
		lt := tLML[kt]
		var slot *memoSlot
		size := 0 // the entries of kt's columns, when it is looked up
		if mm != nil && lt < kt && kt < n-1 {
			size = m * leftPath(tLML, lt, kt)
			slot = mm.keyroot(c.owner, lt, kt, size)
			if slot != nil && slot.cutoff >= int32(cutoff) {
				k.loadColumns(mm.data(slot, size), tLML, lt, kt)
				aborted = aborted || slot.outcome == Aborted
				c.keyrootHits++
				continue
			}
		}
		ktAborted := false
		for _, kq := range c.qKey {
			if !k.forestDist(c, tLML, kq, c.qLML[kq], kt, lt, cutoff) {
				ktAborted = true
			}
		}
		c.pairs += len(c.qKey)
		if slot != nil {
			k.saveColumns(mm.data(slot, size), tLML, lt, kt, cutoff)
			slot.cutoff, slot.outcome = int32(cutoff), Completed
			if ktAborted {
				slot.outcome = Aborted
			}
		}
		aborted = aborted || ktAborted
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
