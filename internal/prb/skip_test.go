package prb

import (
	"math"
	"testing"

	"tasm/internal/postorder"
)

// FuzzCursorSkip: over any forest (the empty one included), random bound
// rows for one to four histograms and any limits — math.MaxInt32,
// negative ones, ones equal to a bound — Skip steps over exactly the
// candidates a per-candidate loop over Next and LabelBound finds gated
// for every histogram: the same count, landing on the same candidate,
// never past the last one.
func FuzzCursorSkip(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x0a, 0x03, 0x1c, 0x05}, []byte{7, 7, 1, 3, 7, 0}, []byte{2, 0xff, 1}, uint8(2), uint8(0))
	f.Add([]byte{}, []byte{}, []byte{0xff}, uint8(1), uint8(0))                                                                     // empty document
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, []byte{5, 5, 5, 0, 5, 5, 5, 5, 5, 5, 5, 5}, []byte{4, 4}, uint8(1), uint8(1)) // two rows
	f.Add([]byte{0x01, 0x09, 0x11, 0x19, 0x01, 0x09, 0x02, 0x03}, []byte{3, 2, 1, 0}, []byte{2, 2, 2, 0xff, 0, 1}, uint8(3), uint8(3))
	leaves := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06} // six one-node candidates
	for rows := range uint8(2) {
		f.Add(leaves, []byte{3}, []byte{4}, uint8(0), rows)                // every bound equals its limit: nothing is gated
		f.Add(leaves, []byte{7}, []byte{0}, uint8(0), rows)                // everything is gated, to the end
		f.Add(leaves, []byte{7, 7, 7, 7, 7, 0}, []byte{0}, uint8(0), rows) // … but the last candidate, which the run stops before
	}
	f.Fuzz(func(t *testing.T, docData, boundData, limitData []byte, tauRaw, rowsRaw uint8) {
		if len(docData) > 512 || len(boundData) > 2048 {
			t.Skip()
		}
		items := forestItems([]int{1, 2, 3, 4, 5, 6, 7, 8}, docData)
		cols, err := postorder.BuildColumns(postorder.NewSliceQueue(items), len(items))
		if err != nil {
			t.Fatalf("BuildColumns refused a well-formed forest: %v", err)
		}
		whole := NewCursor(cols, 1+int(tauRaw)%(len(items)+2))
		n, rows := len(whole.roots), 1+int(rowsRaw)%4
		// Bounds 0…7, so that small limits gate some candidates and admit
		// others.
		whole.bounds = make([]int32, rows*n)
		for i := range whole.bounds {
			if len(boundData) > 0 {
				whole.bounds[i] = int32(boundData[i%len(boundData)] % 8)
			}
		}
		cur, ref := *whole, *whole

		// limit 0xff is math.MaxInt32 — an open ranking — and the others lie
		// in −1…7.
		limits, step := make([]int32, rows), 0
		nextLimits := func() {
			for q := range limits {
				b := byte(0xff)
				if len(limitData) > 0 {
					b = limitData[(step*rows+q)%len(limitData)]
				}
				limits[q] = math.MaxInt32
				if b != 0xff {
					limits[q] = int32(b%9) - 1
				}
			}
			step++
		}
		gated := func(c *Cursor) bool {
			for q, limit := range limits {
				if c.LabelBound(q) <= int(limit) {
					return false
				}
			}
			return true
		}
		for total := 0; ; total++ { // total: the candidates stepped over or visited
			nextLimits()
			skipped := cur.Skip(limits)
			total += skipped
			if cur.cur >= n {
				t.Fatalf("Skip went to candidate %d, past the last %d", cur.cur, n-1)
			}
			want, more := 0, false
			for {
				if more = ref.Next(); !more || !gated(&ref) {
					break
				}
				want++
			}
			if skipped != want {
				t.Fatalf("step %d, %d rows, limits %v: Skip stepped over %d candidates, the per-candidate loop %d", step, rows, limits, skipped, want)
			}
			got := cur.Next()
			if got != more {
				t.Fatalf("step %d: after Skip, Next reports a candidate=%v, the per-candidate loop %v", step, got, more)
			}
			if !more {
				if total != n {
					t.Fatalf("%d candidates ended after %d stepped over or visited", n, total)
				}
				return
			}
			if cur.Root() != ref.Root() || cur.cur != ref.cur {
				t.Fatalf("step %d: Skip landed on candidate %d (root %d), the per-candidate loop on %d (root %d)", step, cur.cur, cur.Root(), ref.cur, ref.Root())
			}
		}
	})
}
