package ranking

import (
	"math"
	"sync/atomic"
)

// Cutoff publishes a monotonically tightening upper bound on the distance
// any entry must beat to enter a ranking — the current k-th best distance
// of the heaps attached to it. It is the lock-free communication channel
// of the candidate pruning pipeline: the kernel's histogram and size gates
// and the early-abort TED evaluations of every scan sharing it — later
// documents of a corpus run, the shards of a group — read the bound with a single atomic load, and every heap
// attached to it publishes its k-th distance with a compare-and-swap.
//
// The published value only ever decreases (Tighten is a monotonic min),
// so a stale read is always a looser bound: a reader acting on it may
// evaluate a candidate that a fresher bound would have skipped, never the
// reverse. Until the attached ranking first fills, Load returns +Inf,
// which disables every consumer gate.
type Cutoff struct {
	bits atomic.Uint64 // math.Float64bits of the current bound
}

// NewCutoff returns a publisher with no published bound yet (+Inf).
func NewCutoff() *Cutoff {
	c := &Cutoff{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the current published bound; +Inf when nothing has been
// published. Safe for concurrent use.
//
//tasm:hotpath
func (c *Cutoff) Load() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Tighten lowers the published bound to d if d is smaller; larger values
// are ignored, keeping the publication monotone. Safe for concurrent use.
//
//tasm:hotpath
func (c *Cutoff) Tighten(d float64) {
	nb := math.Float64bits(d)
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) <= d {
			return
		}
		if c.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}
