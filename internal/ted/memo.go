package ted

import (
	"math"
	"slices"
)

// memo remembers, for the lifetime of one Computer, the distance row of
// every distinct view the computer has evaluated, keyed by the view's
// canonical signature (prb.LabelHist.Signature): per node, in postorder,
// the ordinal of its label among the query's labels — 0 for every label
// the query does not use — and the size of its subtree.
//
// Under cost.Unit the row δ(Q, V_j) is a function of that signature and
// nothing else: every node costs 1, the sizes determine the shape of V
// (hence its leftmost leaves and keyroots), and the dynamic program reads
// a view label only to compare it with a query label — equal exactly when
// the view node's ordinal is the query node's, unequal to all of them when
// it is 0. Documents that repeat one record shape thousands of times
// therefore ask for the same row again and again, and a repeat costs a
// table probe instead of a dynamic program.
//
// A hash is never trusted: a probe hits only after the stored signature
// compares equal element by element, so a collision costs a comparison,
// not a wrong row. An entry also records the cutoff its row was computed
// under, and serves only evaluations whose cutoff is no looser (the k-th
// distance of a scan only tightens, so in practice every repeat);
// distances between the two cutoffs are masked on the way out, so
// EvaluateView's contract is unchanged. An entry found under a looser
// cutoff is recomputed in place.
//
// The table is fixed: memoSlots slots and one int16 slab, allocated once
// per computer — about 24 KiB, which on the benchmark's XMark corpus held
// every distinct view of a |Q| = 16, k = 50 query. There is no eviction
// and no growth. A view of more than memoMaxView nodes bypasses the memo;
// a new view that finds the table or the slab full is evaluated and not
// stored — both behave as a computer without a memo would.
type memo struct {
	slots [memoSlots]memoSlot
	used  int32 // occupied slots
	free  int32 // first unused slab index
	// slab holds, after a head of 2·memoMaxView entries that receives the
	// signature of the view being looked up, one entry per stored view: the
	// 2n signature values followed by the n distances of its row, −1 for a
	// distance over the entry's cutoff.
	slab [memoSlab]int16
}

// memoSlot is one stored view. off is never 0 in an occupied slot —
// entries start behind the slab's head.
type memoSlot struct {
	hash    uint32
	cutoff  int32 // the integer cutoff the row was computed under
	off     uint16
	n       uint16
	outcome Outcome
}

const (
	memoSlotBits = 8
	memoSlots    = 1 << memoSlotBits
	// memoMaxLoad keeps a quarter of the slots empty, so a probe sequence
	// stays short and always ends.
	memoMaxLoad = memoSlots * 3 / 4
	// memoMaxView is the largest view the memo looks up. TASM views are at
	// most τ = 2|Q|+k nodes; one of this size already takes a thirteenth of
	// the slab.
	memoMaxView = 256
	memoHead    = 2 * memoMaxView
	// memoSlab sizes the whole memo to the allocator's 24 KiB class.
	memoSlab = (24<<10 - memoSlots*16 - 8) / 2
)

// newMemo returns the memo of a unit-cost computer for a query of m
// nodes, or nil when the query is so large that an ordinal (≤ m) or a
// distance (≤ m + n) could overflow the slab's int16 entries.
func newMemo(m int) *memo {
	if m+memoMaxView > math.MaxInt16 {
		return nil
	}
	return &memo{free: memoHead}
}

// head returns the scratch that receives the signature of an n-node view
// about to be looked up; none from a nil memo.
func (mm *memo) head(n int) []int16 {
	if mm == nil {
		return nil
	}
	return mm.slab[:2*n]
}

// lookup returns the slot of the n-node view whose signature is in the
// head and hashes to hash: the one that holds it already, or an empty one
// it has just been given — its signature copied behind the entries so far,
// its row still to be stored. It returns nil when the view is new and the
// table or the slab has no room for it, and from a nil memo.
//
//tasm:hotpath
func (mm *memo) lookup(hash uint32, n int) *memoSlot {
	if mm == nil {
		return nil
	}
	sig := mm.slab[:2*n]
	i := hash >> (32 - memoSlotBits)
	for ; mm.slots[i].off != 0; i = (i + 1) % memoSlots {
		if s := &mm.slots[i]; s.hash == hash && int(s.n) == n && slices.Equal(mm.slab[s.off:][:2*n], sig) {
			return s
		}
	}
	s := &mm.slots[i]
	if mm.used >= memoMaxLoad || int(mm.free)+3*n > len(mm.slab) {
		return nil
	}
	copy(mm.slab[mm.free:], sig)
	*s = memoSlot{hash: hash, off: uint16(mm.free), n: uint16(n), cutoff: -1} // −1: no row yet, serves no cutoff
	mm.used++
	mm.free += int32(3 * n)
	return s
}

// store records row, computed under cutoff with the given outcome, as
// the row of occupied slot s.
//
//tasm:hotpath
func (mm *memo) store(s *memoSlot, row []float64, cutoff int32, outcome Outcome) {
	s.cutoff, s.outcome = cutoff, outcome
	dst := mm.slab[int(s.off)+2*int(s.n):][:len(row)]
	for j, d := range row {
		if math.IsInf(d, 1) { // over the cutoff
			dst[j] = -1
		} else {
			dst[j] = int16(d)
		}
	}
}

// load writes the row of occupied slot s to row as an evaluation under
// cutoff — no looser than the slot's own — would return it.
//
//tasm:hotpath
func (mm *memo) load(s *memoSlot, row []float64, cutoff int32) {
	src := mm.slab[int(s.off)+2*int(s.n):][:len(row)]
	for j, d := range src {
		if d < 0 || int32(d) > cutoff {
			row[j] = math.Inf(1)
		} else {
			row[j] = float64(d)
		}
	}
}
