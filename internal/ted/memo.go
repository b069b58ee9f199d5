package ted

import (
	"math"
	"math/bits"
	"slices"
)

// Memo remembers what the dynamic programs of the computers it is lent to
// have already worked out, each computer's entries its own, keyed by
// canonical signatures (prb.LabelHist.Signature): per node, in postorder,
// the ordinal of its label among the query's labels — 0 for every label
// the query does not use — and the size of its subtree. It holds two
// kinds of entry in one table, behind one lookup:
//
//   - a view entry: the distance row of a whole view, keyed by the view's
//     signature;
//   - a keyroot entry: the tree-distance columns of a keyroot's left path
//     — δ(Q_i, V_j) for every query node i and every node j on the path
//     from the keyroot down to its leftmost leaf, all that the keyroot
//     pairs (·, kt) of Zhang–Shasha write — keyed by the signature of the
//     keyroot's subtree, which is the slice [lml(kt), kt] of the view's.
//
// Under cost.Unit both are a function of their signature and nothing else:
// every node costs 1, the sizes determine the shape (hence leftmost leaves
// and keyroots), and the dynamic program reads a view label only to
// compare it with a query label — equal exactly when the view node's
// ordinal is the query node's, unequal to all of them when it is 0. A
// distance δ(Q_i, V_j) depends on the subtree V_j alone, and the subtree of
// a node inside a keyroot's subtree lies inside it. Documents that repeat
// one record shape thousands of times therefore ask for the same rows and
// columns again and again, and a repeat costs a table probe instead of a
// dynamic program or a keyroot's share of one.
//
// A hash is never trusted: a probe hits only after the stored signature
// compares equal element by element, so a collision costs a comparison,
// not a wrong entry. An entry also records the cutoff it was computed
// under, and serves only evaluations whose cutoff is no looser (the k-th
// distance of a scan only tightens, so in practice every repeat); an entry
// found under a looser cutoff is recomputed in place. See EvaluateView for
// why a stored value is as good as a recomputed one.
//
// The table is fixed: memoSlots slots and one int16 slab — 56 KiB, which
// on the benchmark's XMark corpus held every entry of a |Q| = 16, k = 50
// query, and those of a batch of four |Q| = 8, k = 5 ones. There is no
// eviction and no growth. A view of more than memoMaxView nodes bypasses
// the memo; a new entry that finds the table or the slab full is computed
// and not stored — both behave as a computer without a memo would.
//
// One Memo serves the computers of a scan that evaluate one after another
// on one goroutine — the queries of a batch — so the memory a scan keeps
// for them does not grow with their number (NewComputerWith). Entries are
// tagged with their computer, and the head belongs to whichever computer
// is evaluating. A caller that keeps a Memo across scans empties it with
// Reset, which clears the slots and nothing else.
type Memo struct {
	slots  [memoSlots]memoSlot
	used   int32  // occupied slots
	free   int32  // slab entries in use behind the head
	owners uint16 // computers lent the memo since it was last emptied
	// slab holds, after a head of 2·memoMaxView entries that receives the
	// signature of the view being evaluated, one entry after another: its
	// signature, then its data — the n distances of a view's row, or m per
	// column of a keyroot's columns — with −1 for a distance over the
	// entry's cutoff.
	slab [memoSlab]int16
}

// memoKind tells the two kinds of entry apart: a view and the subtree of
// one of its keyroots can have one signature and must not share an entry.
type memoKind uint8

const (
	viewEntry memoKind = iota
	keyrootEntry
)

// memoSlot is one stored entry. off is never 0 in an occupied slot —
// entries start behind the slab's head. outcome is, for a view, how the
// evaluation of its row ended, and for a keyroot Aborted when one of its
// pairs was abandoned.
type memoSlot struct {
	hash    uint32
	cutoff  int32  // the integer cutoff the entry was computed under
	off     uint16 // slab index of the signature; the data follows it
	n       uint16 // nodes the signature covers
	owner   uint16 // the computer whose entry it is, from lend
	kind    memoKind
	outcome Outcome
}

const (
	memoSlotBits = 9
	memoSlots    = 1 << memoSlotBits
	// memoMaxLoad keeps a quarter of the slots empty, so a probe sequence
	// stays short and always ends.
	memoMaxLoad = memoSlots * 3 / 4
	// memoMaxView is the largest view the memo looks up. TASM views are at
	// most τ = 2|Q|+k nodes.
	memoMaxView = 256
	memoHead    = 2 * memoMaxView
	// memoSlab sizes the whole memo to seven 8 KiB pages.
	memoSlab = (56<<10 - memoSlots*16 - 10) / 2
)

// memoFits reports whether a query of m nodes can use the memo: an ordinal
// (≤ m) and a distance (≤ m + n) must fit the slab's int16 entries.
func memoFits(m int) bool { return m+memoMaxView <= math.MaxInt16 }

// Reset forgets every entry and every computer the memo was lent to,
// which must not evaluate anything after it.
func (mm *Memo) Reset() {
	clear(mm.slots[:])
	mm.used, mm.free, mm.owners = 0, 0, 0
}

// lend returns the owner of a new computer's entries, one no other
// computer lent the memo since Reset has; false once all have been lent.
func (mm *Memo) lend() (uint16, bool) {
	if mm.owners == math.MaxUint16 {
		return 0, false
	}
	mm.owners++
	return mm.owners, true
}

// head returns the scratch that receives the signature of an n-node view
// about to be looked up; none from a nil memo.
func (mm *Memo) head(n int) []int16 {
	if mm == nil {
		return nil
	}
	return mm.slab[:2*n]
}

// view returns owner's slot of the n-node view whose signature is in the
// head; see lookup.
//
//tasm:hotpath
func (mm *Memo) view(owner uint16, n int) *memoSlot {
	if mm == nil {
		return nil
	}
	return mm.lookup(owner, viewEntry, mm.slab[:2*n], n)
}

// keyroot returns owner's slot of the subtree of the keyroot kt, with
// leftmost leaf lt, of the view whose signature is in the head, whose
// columns take data entries; see lookup.
//
//tasm:hotpath
func (mm *Memo) keyroot(owner uint16, lt, kt, data int) *memoSlot {
	return mm.lookup(owner, keyrootEntry, mm.slab[2*lt:2*kt+2], data)
}

// probeStart is the slot owner's probe for a signature hashing to hash
// starts at. Owners start apart: the queries of a batch evaluate the same
// views.
func probeStart(hash uint32, owner uint16) uint32 {
	return (hash ^ uint32(owner)*0x9e3779b9) >> (32 - memoSlotBits)
}

// lookup returns owner's slot of the entry of the given kind whose
// signature is sig: the one that holds it already, or an empty one it has
// just been given — sig copied behind the entries so far, room for data
// entries reserved after it, its data still to be stored (cutoff −1: it
// serves no cutoff yet). It returns nil when the entry is new and the
// table or the slab has no room for it.
//
//tasm:hotpath
func (mm *Memo) lookup(owner uint16, kind memoKind, sig []int16, data int) *memoSlot {
	n, hash := len(sig)/2, sigHash(sig)
	i := probeStart(hash, owner)
	for ; mm.slots[i].off != 0; i = (i + 1) % memoSlots {
		if s := &mm.slots[i]; s.hash == hash && s.owner == owner && s.kind == kind && int(s.n) == n && slices.Equal(mm.slab[s.off:][:len(sig)], sig) {
			return s
		}
	}
	s := &mm.slots[i]
	off := memoHead + int(mm.free)
	if mm.used >= memoMaxLoad || off+len(sig)+data > len(mm.slab) {
		return nil
	}
	copy(mm.slab[off:], sig)
	*s = memoSlot{hash: hash, cutoff: -1, off: uint16(off), n: uint16(n), owner: owner, kind: kind}
	mm.used++
	mm.free += int32(len(sig) + data)
	return s
}

// data returns the first size entries of the data of occupied slot s.
func (mm *Memo) data(s *memoSlot, size int) []int16 {
	return mm.slab[int(s.off)+2*int(s.n):][:size]
}

// sigHash hashes a signature: FNV-1a taken one node — not one byte — at a
// time, with a rotation before the multiply. A node's word carries its
// ordinal in the high half, and a multiplication alone never carries
// those bits down into the low half of the hash.
func sigHash(sig []int16) uint32 {
	h := uint32(2166136261)
	for j := 0; j+1 < len(sig); j += 2 {
		h = bits.RotateLeft32(h^uint32(uint16(sig[j]))<<16^uint32(uint16(sig[j+1])), 5) * 16777619
	}
	return h
}

// store records row, computed under cutoff with the given outcome, as the
// row of the occupied view slot s.
//
//tasm:hotpath
func (mm *Memo) store(s *memoSlot, row []float64, cutoff int32, outcome Outcome) {
	s.cutoff, s.outcome = cutoff, outcome
	dst := mm.data(s, len(row))
	for j, d := range row {
		if math.IsInf(d, 1) { // over the cutoff
			dst[j] = -1
		} else {
			dst[j] = int16(d)
		}
	}
}

// load writes the row of the occupied view slot s to row as an evaluation
// under cutoff — no looser than the slot's own — would return it.
//
//tasm:hotpath
func (mm *Memo) load(s *memoSlot, row []float64, cutoff int32) {
	for j, d := range mm.data(s, len(row)) {
		if d < 0 || int32(d) > cutoff {
			row[j] = math.Inf(1)
		} else {
			row[j] = float64(d)
		}
	}
}

// leftPath returns the number of nodes on the left path of keyroot kt,
// whose leftmost leaf is lt: the nodes of its subtree with leftmost leaf
// lt, one tree-distance column each.
func leftPath(tLML []int, lt, kt int) int {
	p := 0
	for _, l := range tLML[lt : kt+1] {
		if l == lt {
			p++
		}
	}
	return p
}

// saveColumns writes to dst the tree-distance columns of the left path of
// keyroot kt, as the pairs (·, kt) left them under cutoff: m entries per
// column, −1 for a distance over the cutoff.
func (k *kernel[C]) saveColumns(dst []int16, tLML []int, lt, kt int, cutoff C) {
	m, d := len(k.qCost), 0
	for j := lt; j <= kt; j++ {
		if tLML[j] != lt {
			continue
		}
		for i := 0; i < m; i++ {
			if v := k.td[i*k.tdCols+j]; v > cutoff {
				dst[d] = -1
			} else {
				dst[d] = int16(v)
			}
			d++
		}
	}
}

// loadColumns writes columns saved by saveColumns back into td, a distance
// over the saved cutoff as the sentinel.
func (k *kernel[C]) loadColumns(src []int16, tLML []int, lt, kt int) {
	m, d := len(k.qCost), 0
	for j := lt; j <= kt; j++ {
		if tLML[j] != lt {
			continue
		}
		for i := 0; i < m; i++ {
			if v := src[d]; v < 0 {
				k.td[i*k.tdCols+j] = k.over
			} else {
				k.td[i*k.tdCols+j] = C(v)
			}
			d++
		}
	}
}
