// Package pqgram implements the pq-gram distance of Augsten, Böhlen and
// Gamper (TODS), the approximate tree similarity the TASM paper cites as
// related work ([21], Sections III–IV): an O(n log n) bag-of-fragments
// approximation of the (fanout-weighted) tree edit distance.
//
// A pq-gram is a small fixed-shape fragment of the tree: a stem of p
// ancestors ending at an anchor node, plus a base of q consecutive
// children of the anchor, where missing ancestors and children are padded
// with dummy nodes (*). The pq-gram profile of a tree is the bag of all
// its pq-grams; the distance between two trees is the size of the
// symmetric difference of their profiles (optionally normalized to
// [0, 1]).
//
// In this repository pq-grams serve two roles: a fast related-work
// baseline to contrast with TASM's exact ranking (see the FilterVerify
// example and benchmarks), and a demonstration that the exactness of
// TASM-postorder costs little — the approximation is faster per pair but
// offers no guarantee that the true top-k survive filtering. The corpus
// also orders its document scans by pq-gram distance; it reads the
// distances off an inverted index of the documents' profiles, for which
// Distance is the reference.
package pqgram

import (
	"fmt"
	"slices"

	"tasm/internal/tree"
)

// dummy is the padding label of extended trees; it cannot collide with
// interned labels, which are non-negative.
const dummy = -1

// Profile is a pq-gram profile: a bag of grams represented by hash, with
// multiplicities, held as two parallel arrays sorted by hash. Hash
// collisions are possible in principle (64-bit FNV-1a) and would only
// perturb the approximate distance, never TASM's exact results.
type Profile struct {
	p, q   int
	hashes []uint64 // the distinct gram hashes, ascending
	counts []int32  // counts[i] is the multiplicity of hashes[i]
	total  int
}

// P and Q return the profile's shape parameters.
func (pr *Profile) P() int { return pr.p }
func (pr *Profile) Q() int { return pr.q }

// Size returns the number of grams in the profile (with multiplicity):
// 2·leaves + fanout-sum + (q−1)·non-leaves … fully determined by the
// tree's shape.
func (pr *Profile) Size() int { return pr.total }

// Grams returns the profile's distinct gram hashes in ascending order and
// their multiplicities. Both slices alias the profile and must not be
// modified.
func (pr *Profile) Grams() (hashes []uint64, counts []int32) { return pr.hashes, pr.counts }

// FNV-1a, 64-bit (hash/fnv's New64a). TestProfileHashesGolden pins every
// gram hash: a query's profile and a document's must hash alike.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashLabel feeds one label to an FNV-1a state as a little-endian 8-byte
// word; the dummy (-1) stays distinct from every label.
func hashLabel(h uint64, label int) uint64 {
	u := uint64(int64(label))
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

// hashLabels feeds labels to an FNV-1a state in order.
func hashLabels(h uint64, labels []int) uint64 {
	for _, l := range labels {
		h = hashLabel(h, l)
	}
	return h
}

// New computes the pq-gram profile of t: FromPostorder over its label
// and subtree-size arrays. p ≥ 1 controls stem depth, q ≥ 1 base width;
// the TODS paper's default (and a good general choice) is p=2, q=3.
func New(t *tree.Tree, p, q int) (*Profile, error) {
	return FromPostorder(t.LabelIDs(), t.Sizes(), p, q)
}

// FromPostorder computes the pq-gram profile of the tree whose node i, in
// postorder, has label labels[i] and subtree size sizes[i] — a tree.Tree's
// arrays, or a document's postorder.Columns. The sizes must tile as the
// subtree sizes of a postorder do, which both types guarantee; a forest's
// roots are anchored under no parent, as the root of a tree is.
//
// A gram's hash is FNV-1a over its p stem labels (top ancestor first,
// ending at the anchor) and its q base labels, each a little-endian 8-byte
// word. The grams are collected into one slice, sorted and run-length
// counted, so the cost is a fixed handful of allocations per tree, none
// per gram.
func FromPostorder[L int | int32](labels, sizes []L, p, q int) (*Profile, error) {
	if p < 1 || q < 1 {
		return nil, fmt.Errorf("pqgram: p and q must be ≥ 1, got p=%d q=%d", p, q)
	}
	n := len(labels)
	// parent[v] is v's parent (-1 for a root), and first[v] and next[v]
	// link its children in sibling order. One pass keeps a stack (open) of
	// the roots of the subtrees completed so far: node v adopts from its
	// top every root inside its own subtree, its children right to left,
	// so prepending keeps them in order.
	links := make([]int, 4*n)
	parent, first, next, open := links[:n], links[n:2*n], links[2*n:3*n], links[3*n:3*n]
	for v := range n {
		parent[v], first[v] = -1, -1
		for lml := v - int(sizes[v]) + 1; len(open) > 0 && open[len(open)-1] >= lml; open = open[:len(open)-1] {
			c := open[len(open)-1]
			parent[c], next[c], first[v] = v, first[v], c
		}
		open = append(open, v)
	}
	// stem holds the anchor's p−1 ancestors and the anchor, padded with
	// dummies above the root; base is the q-window over its children
	// extended with q−1 dummies on each side.
	window := make([]int, p+q)
	stem, base := window[:p], window[p:]
	// A node with f children contributes f+q−1 windows over its extended
	// child sequence; a leaf thus contributes q−1 all-dummy windows (none
	// when q=1).
	hashes := make([]uint64, 0, q*n)
	for v := 0; v < n; v++ {
		a := v
		for i := p - 1; i >= 0; i-- {
			if a < 0 {
				stem[i] = dummy
				continue
			}
			stem[i] = int(labels[a])
			a = parent[a]
		}
		hs := hashLabels(fnvOffset, stem)
		for i := range base {
			base[i] = dummy
		}
		for c := first[v]; c >= 0; c = next[c] {
			copy(base, base[1:])
			base[q-1] = int(labels[c])
			hashes = append(hashes, hashLabels(hs, base))
		}
		for w := 0; w < q-1; w++ {
			copy(base, base[1:])
			base[q-1] = dummy
			hashes = append(hashes, hashLabels(hs, base))
		}
	}
	pr := &Profile{p: p, q: q, total: len(hashes)}
	slices.Sort(hashes)
	pr.counts = make([]int32, 0, len(hashes))
	for i, h := range hashes {
		if i > 0 && h == hashes[len(pr.counts)-1] {
			pr.counts[len(pr.counts)-1]++
			continue
		}
		hashes[len(pr.counts)] = h
		pr.counts = append(pr.counts, 1)
	}
	pr.hashes = hashes[:len(pr.counts):len(pr.counts)]
	return pr, nil
}

// Distance returns the bag symmetric difference |P1 ⊎ P2| − 2·|P1 ⊓ P2|
// between two profiles, by one galloping merge of their sorted grams: each
// gram of the smaller profile is looked up by exponential search from the
// last match in the larger, so a query's profile against a document's
// costs O(|P_Q| log(|P_D|/|P_Q|)), not a walk over the document's grams.
// It is 0 for identical trees and grows with structural divergence; it
// approximates (and under the fanout-weighted cost model is related to)
// the tree edit distance at a fraction of the cost.
func Distance(a, b *Profile) (int, error) {
	if a.p != b.p || a.q != b.q {
		return 0, fmt.Errorf("pqgram: incompatible profiles (%d,%d) vs (%d,%d)", a.p, a.q, b.p, b.q)
	}
	small, large := a, b
	if len(small.hashes) > len(large.hashes) {
		small, large = large, small
	}
	inter, j := 0, 0
	for i, h := range small.hashes {
		if j += gallop(large.hashes[j:], h); j == len(large.hashes) {
			break
		}
		if large.hashes[j] == h {
			inter += int(min(small.counts[i], large.counts[j]))
		}
	}
	return a.total + b.total - 2*inter, nil
}

// gallop returns the index of the first hash in s (ascending) that is at
// least h, or len(s): it doubles a bound until it passes h, then
// binary-searches the last doubling.
func gallop(s []uint64, h uint64) int {
	n := 1
	for n < len(s) && s[n-1] < h {
		n *= 2
	}
	i, _ := slices.BinarySearch(s[n/2:min(n, len(s))], h)
	return n/2 + i
}

// Normalized returns the pq-gram distance scaled to [0, 1]:
// 1 − 2·|P1 ⊓ P2| / |P1 ⊎ P2|. Two identical trees score 0, trees with
// disjoint profiles score 1.
func Normalized(a, b *Profile) (float64, error) {
	d, err := Distance(a, b)
	if err != nil {
		return 0, err
	}
	union := a.total + b.total
	if union == 0 {
		return 0, nil
	}
	return float64(d) / float64(union), nil
}
