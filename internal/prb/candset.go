package prb

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sync/atomic"

	"tasm/internal/postorder"
)

// CandidateSlots is how many τ values a CandidateCache holds. A constant,
// not an option: a filled slot costs about a byte per node of its resident
// document (plus 4 bytes per candidate and per 64-node block), against
// the 12 bytes per node of the document's columns, and is filled only by
// traffic that uses its τ; a τ that finds every slot taken costs what an
// uncached scan does and allocates nothing. Every query shape of the
// serving benchmark uses three to five τ (2|Q|+k over a spread of query
// sizes), so eight hold a shape's thresholds with room for a second one.
const CandidateSlots = 8

// blockShift sets the block of a candidate set's node map: 1<<blockShift
// document nodes, so that no more candidates than fit in a byte start in
// one block.
const blockShift = 6

// aboveTau marks, in a candidate set's node map, a node that lies in no
// candidate.
const aboveTau = 0xff

// candidateSet is cand(T, τ) of one resident document, located once: the
// candidate roots in document order and a node map that finds the
// candidate holding any node in two independent loads. It depends on
// nothing but the document and τ, so every scan of the document at τ
// shares one. Immutable once built.
type candidateSet struct {
	tau   int
	roots []int32 // candidate root ids, in document order
	// The node map: node id lies in candidate first[b] + local[id−1],
	// b = (id−1)>>blockShift, or in none when local[id−1] is aboveTau.
	// first[b] is the first candidate whose root is not left of block b;
	// the candidates that hold a node of the block are it and the few
	// whose roots lie in the block before that node.
	first   []int32
	local   []uint8
	covered int // the nodes inside candidates
}

// newCandidateSet locates the candidates of cols at tau, into *scratch
// first, and maps every node to the one that holds it. The roots and the
// block starts share one allocation, sized exactly.
func newCandidateSet(cols *postorder.Columns, tau int, scratch *[]int32) *candidateSet {
	sizes := cols.Sizes()
	roots, covered := locate(*scratch, sizes, tau)
	*scratch = roots
	n, blocks := len(roots), (len(sizes)+1<<blockShift-1)>>blockShift
	slab := make([]int32, n+blocks)
	s := &candidateSet{
		tau:     tau,
		roots:   slab[:n:n],
		first:   slab[n:],
		local:   make([]uint8, len(sizes)),
		covered: covered,
	}
	copy(s.roots, roots)
	j := 0
	for b := range s.first {
		for start := int32(b<<blockShift + 1); j < len(s.roots) && s.roots[j] < start; {
			j++
		}
		s.first[b] = int32(j)
	}
	next := 0 // the first node id−1 not yet mapped
	for j, r := range s.roots {
		lo := int(r - sizes[r-1])
		for i := next; i < lo; i++ {
			s.local[i] = aboveTau
		}
		// The candidates first[b] … j−1 have their roots in block b, left
		// of node i: fewer than 1<<blockShift.
		for i := lo; i < int(r); i++ {
			s.local[i] = uint8(j - int(s.first[i>>blockShift]))
		}
		next = int(r)
	}
	for i := next; i < len(s.local); i++ {
		s.local[i] = aboveTau
	}
	return s
}

// locate appends to roots[:0] the candidate roots of the document whose
// size column is sizes at tau, in document order, and returns them with
// the number of nodes they cover. It walks right to left from the last
// node: a node of size ≤ τ is a candidate root — every node the walk has
// stepped over instead of jumping is an ancestor larger than τ, and those
// are all its ancestors — and the walk jumps over its whole subtree; a
// node larger than τ is stepped over to its last child, the node just
// before it. The walk touches only candidate roots and nodes larger than
// τ, and its roots reversed are document order.
func locate(roots, sizes []int32, tau int) ([]int32, int) {
	roots, covered := roots[:0], 0
	for i := len(sizes); i > 0; {
		if s := int(sizes[i-1]); s <= tau {
			roots = append(roots, int32(i))
			covered += s
			i -= s
		} else {
			i--
		}
	}
	slices.Reverse(roots)
	return roots, covered
}

// Bytes returns the heap bytes the set's arrays hold: 4 per candidate, 1
// per node and 4 per block of 1<<blockShift nodes.
func (s *candidateSet) Bytes() int64 {
	return 4*int64(len(s.roots)+len(s.first)) + int64(len(s.local))
}

// CandidateCache holds the candidate sets of one resident document at up
// to CandidateSlots values of τ. The first scan that needs a τ builds its
// set into a free slot; slots are never evicted, so a set, once there,
// serves every later scan at its τ, and a τ that finds every slot taken
// is located by the cursor as if there were no cache, allocating nothing
// and replacing nothing. A lookup reads the filled slots in order, one
// atomic load each. The zero value is
// an empty cache. Safe for concurrent use; it must not be copied.
type CandidateCache struct {
	slots [CandidateSlots]atomic.Pointer[candidateSet]
}

// set returns the cache's set of cols at tau, building it into a free slot
// if no slot holds tau, with scratch to locate the roots in; nil, without
// allocating, when every slot holds another τ. cols must be the document
// the cache belongs to.
func (c *CandidateCache) set(cols *postorder.Columns, tau int, scratch *[]int32) *candidateSet {
	var built *candidateSet
	for i := range c.slots {
		slot := &c.slots[i]
		s := slot.Load()
		if s == nil {
			// Slots fill in order and are never emptied, so no later slot
			// holds tau either: claim this one.
			if built == nil {
				built = newCandidateSet(cols, tau, scratch)
			}
			if slot.CompareAndSwap(nil, built) {
				return built
			}
			s = slot.Load() // another scan filled it first
		}
		if s.tau == tau {
			return s
		}
	}
	return nil
}

// Bytes returns the heap bytes of the sets the cache holds.
func (c *CandidateCache) Bytes() int64 {
	var n int64
	for i := range c.slots {
		if s := c.slots[i].Load(); s != nil {
			n += s.Bytes()
		}
	}
	return n
}

// Checksum returns a CRC-32 of the sets the cache holds — each one's τ,
// roots and node map, in slot order — so that a test can show that no
// scan writes into a set.
func (c *CandidateCache) Checksum() uint32 {
	var sum uint32
	var b [4]byte
	add := func(v int32) {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		sum = crc32.Update(sum, crc32.IEEETable, b[:])
	}
	for i := range c.slots {
		if s := c.slots[i].Load(); s != nil {
			add(int32(s.tau))
			for _, a := range [2][]int32{s.roots, s.first} {
				for _, v := range a {
					add(v)
				}
			}
			sum = crc32.Update(sum, crc32.IEEETable, s.local)
		}
	}
	return sum
}
