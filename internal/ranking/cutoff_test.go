package ranking

import (
	"math"
	"sync"
	"testing"
)

func TestCutoffMonotone(t *testing.T) {
	c := NewCutoff()
	if !math.IsInf(c.Load(), 1) {
		t.Fatalf("fresh cutoff = %g, want +Inf", c.Load())
	}
	c.Tighten(5)
	if got := c.Load(); got != 5 {
		t.Fatalf("after Tighten(5): %g", got)
	}
	c.Tighten(7) // looser: ignored
	if got := c.Load(); got != 5 {
		t.Fatalf("Tighten(7) loosened the bound to %g", got)
	}
	c.Tighten(2)
	if got := c.Load(); got != 2 {
		t.Fatalf("after Tighten(2): %g", got)
	}
}

// TestCutoffConcurrentTighten: under concurrent tightening the published
// value must end at the global minimum and never increase.
func TestCutoffConcurrentTighten(t *testing.T) {
	c := NewCutoff()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := math.Inf(1)
			for i := 1000; i > 0; i-- {
				c.Tighten(float64(w*1000 + i))
				if got := c.Load(); got > last {
					t.Errorf("cutoff rose from %g to %g", last, got)
					return
				} else {
					last = got
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != 1 {
		t.Fatalf("final cutoff %g, want the global minimum 1", got)
	}
}

// TestHeapPublishes: a heap with an attached publisher announces its k-th
// distance as soon as it fills and on every subsequent improvement.
func TestHeapPublishes(t *testing.T) {
	h := New(2)
	c := NewCutoff()
	h.PublishTo(c)
	h.Push(Entry{Dist: 9, Pos: 1})
	if !math.IsInf(c.Load(), 1) {
		t.Error("published before the ranking was full")
	}
	h.Push(Entry{Dist: 4, Pos: 2})
	if got := c.Load(); got != 9 {
		t.Fatalf("published %g at fill, want 9", got)
	}
	h.Push(Entry{Dist: 1, Pos: 3}) // evicts 9, new k-th is 4
	if got := c.Load(); got != 4 {
		t.Fatalf("published %g after eviction, want 4", got)
	}
	h.Push(Entry{Dist: 100, Pos: 4}) // rejected, bound unchanged
	if got := c.Load(); got != 4 {
		t.Fatalf("published %g after rejected push, want 4", got)
	}
}

// TestHeapPublishToWhenAlreadyFull: attaching to a full heap publishes
// immediately (the corpus attaches before scanning, but a heap attached
// mid-query must not wait for its next push).
func TestHeapPublishToWhenAlreadyFull(t *testing.T) {
	h := New(1)
	h.Push(Entry{Dist: 3, Pos: 1})
	c := NewCutoff()
	h.PublishTo(c)
	if got := c.Load(); got != 3 {
		t.Fatalf("published %g on attach, want 3", got)
	}
}
