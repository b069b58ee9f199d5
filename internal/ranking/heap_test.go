package ranking

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundedTopK(t *testing.T) {
	h := New(3)
	for _, d := range []float64{5, 1, 4, 2, 8, 3} {
		h.Push(Entry{Dist: d, Pos: int(d)})
	}
	got := h.Sorted()
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, w := range want {
		if got[i].Dist != w {
			t.Errorf("rank %d = %g, want %g", i, got[i].Dist, w)
		}
	}
	if h.Max().Dist != 3 {
		t.Errorf("Max = %g, want 3", h.Max().Dist)
	}
}

func TestTieBreakByPosition(t *testing.T) {
	h := New(2)
	h.Push(Entry{Dist: 1, Pos: 9})
	h.Push(Entry{Dist: 1, Pos: 3})
	h.Push(Entry{Dist: 1, Pos: 5})
	got := h.Sorted()
	if got[0].Pos != 3 || got[1].Pos != 5 {
		t.Errorf("tie order = %d,%d, want 3,5", got[0].Pos, got[1].Pos)
	}
}

func TestPushReportsRetention(t *testing.T) {
	h := New(1)
	if !h.Push(Entry{Dist: 5, Pos: 1}) {
		t.Error("first push must retain")
	}
	if h.Push(Entry{Dist: 7, Pos: 2}) {
		t.Error("worse entry must not retain")
	}
	if !h.Push(Entry{Dist: 3, Pos: 3}) {
		t.Error("better entry must retain")
	}
	if h.Max().Dist != 3 {
		t.Errorf("Max = %g", h.Max().Dist)
	}
}

func TestWouldRetainMatchesPush(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(rng.Intn(5) + 1)
		for i := 0; i < 40; i++ {
			e := Entry{Dist: float64(rng.Intn(10)), Pos: rng.Intn(100) + 1}
			want := h.WouldRetain(e)
			got := h.Push(e)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAgainstSortQuick: the heap's result equals sorting all entries and
// truncating to k under (Dist, Pos).
func TestAgainstSortQuick(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%10 + 1
		n := int(nRaw) % 120
		h := New(k)
		var all []Entry
		for i := 0; i < n; i++ {
			e := Entry{Dist: float64(rng.Intn(20)), Pos: i + 1, Size: rng.Intn(9)}
			all = append(all, e)
			h.Push(e)
		}
		sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
		if len(all) > k {
			all = all[:k]
		}
		got := h.Sorted()
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("New(0)", func() { New(0) })
	mustPanic("empty Max", func() { New(1).Max() })
}

func TestFull(t *testing.T) {
	h := New(2)
	if h.Full() {
		t.Error("empty heap reported full")
	}
	h.Push(Entry{Dist: 1, Pos: 1})
	if h.Full() {
		t.Error("half-filled heap reported full")
	}
	h.Push(Entry{Dist: 2, Pos: 2})
	if !h.Full() {
		t.Error("full heap not reported full")
	}
}
