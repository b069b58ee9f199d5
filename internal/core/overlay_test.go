package core

// Tests pinning the request-scoped dictionary overlay to the behaviour of
// the old shared-interning world: rankings must be byte-identical whether
// query labels intern into the document's own dictionary or into a
// copy-on-write overlay above it, and the overlay must not cost the
// steady-state zero-allocation invariant of the candidate path.

import (
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/race"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// FuzzOverlayVsShared pins TopK byte-identity between the two interning
// modes. Shared: document and query intern into one mutable dictionary
// (the pre-overlay corpus behaviour). Overlay: the document's dictionary
// is frozen after the document is interned, and the query lives in a
// request overlay above it. Every ranked match — distance, position,
// size, and the rendered subtree — must be identical.
func FuzzOverlayVsShared(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0x22, 0x31, 0x04}, uint8(1), uint8(2))
	f.Add([]byte{0x05, 0x0a, 0x21, 0x00, 0x13}, uint8(4), uint8(1))
	f.Add([]byte{0x01, 0x01, 0x01, 0x71, 0x01, 0x72}, uint8(5), uint8(4))
	f.Add([]byte{0x13, 0x24, 0x35, 0x46, 0x57, 0x01, 0x12}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, qSel, kRaw uint8) {
		// Queries deliberately mix labels the document dictionary holds
		// (a..h) with labels only queries carry (x, y): the latter intern
		// above the overlay watermark in the overlay run and as fresh
		// shared ids in the shared run.
		queries := []string{
			"{a}", "{a{b}}", "{a{b}{c}}", "{b{a{c}}{d}}",
			"{a{x}}", "{x{y}}", "{x{a{y}{b}}}",
		}
		qs := queries[int(qSel)%len(queries)]
		k := int(kRaw)%5 + 1

		// Shared interning: document labels first (ingest), then the
		// query's labels into the same mutable dictionary.
		shared := dict.New()
		sharedIDs := make([]int, 8)
		for i := range sharedIDs {
			sharedIDs[i] = shared.Intern(string(rune('a' + i)))
		}
		items := decodeDoc(shared, sharedIDs, data)
		if items == nil {
			t.Skip("empty document")
		}
		qShared := tree.MustParse(shared, qs)

		// Overlay interning: an identical document dictionary, frozen
		// after ingest; the query interns into a request overlay.
		base := dict.New()
		for i := 0; i < 8; i++ {
			base.Intern(string(rune('a' + i)))
		}
		base.Freeze()
		ov := dict.NewOverlay(base)
		qOverlay := tree.MustParse(ov, qs)

		opts := Options{CT: 1}
		gotShared, err := PostorderStream(qShared, postorder.NewSliceQueue(items), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotOverlay, err := PostorderStream(qOverlay, postorder.NewSliceQueue(items), k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotShared) != len(gotOverlay) {
			t.Fatalf("shared returned %d matches, overlay %d", len(gotShared), len(gotOverlay))
		}
		for i := range gotShared {
			s, o := gotShared[i], gotOverlay[i]
			if s.Dist != o.Dist || s.Pos != o.Pos || s.Size != o.Size {
				t.Fatalf("match %d diverged: shared %+v overlay %+v", i, s, o)
			}
			if (s.Tree == nil) != (o.Tree == nil) {
				t.Fatalf("match %d: tree materialization diverged", i)
			}
			if s.Tree != nil && s.Tree.String() != o.Tree.String() {
				t.Fatalf("match %d: shared tree %s != overlay tree %s", i, s.Tree, o.Tree)
			}
		}
		if base.Len() != 8 {
			t.Fatalf("overlay run grew the frozen base to %d labels", base.Len())
		}

		// The column scan must agree too, with the overlay dictionary
		// active: byte-identical, trees included, to the strict stream scan
		// of the shared query.
		cols, err := postorder.BuildColumns(postorder.NewSliceQueue(items), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := ranking.New(k)
		if err := PostorderStreamInto(qShared, postorder.NewSliceQueue(items), want, 0, opts); err != nil {
			t.Fatal(err)
		}
		got, err := columnsTopK([]*tree.Tree{qOverlay}, cols, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualTrees(t, "overlay columns", got[0], want.Sorted())
	})
}

// TestPostorderStreamOverlayAllocsPerCandidateZero re-asserts the
// steady-state zero-allocation invariant with the overlay in place: a
// NoTrees scan whose query lives in a request overlay over the frozen
// document dictionary must allocate exactly as much for 600 records as
// for 60 — the overlay's read-through path costs no allocation per
// candidate.
func TestPostorderStreamOverlayAllocsPerCandidateZero(t *testing.T) {
	base := dict.New()
	small := recordDoc(t, base, 60)
	large := recordDoc(t, base, 600)
	base.Freeze()
	ov := dict.NewOverlay(base)
	// One label the base knows, one it does not: the unknown one sits
	// above the watermark and must still cost nothing per candidate.
	q := tree.MustParse(ov, "{rec{a}{only-in-query}}")
	if ov.Added() != 1 {
		t.Fatalf("overlay Added = %d, want 1", ov.Added())
	}
	opts := Options{NoTrees: true, CT: 1}
	run := func(items []postorder.Item) func() error {
		return func() error {
			_, err := PostorderStream(q, postorder.NewSliceQueue(items), 2, opts)
			return err
		}
	}
	if race.Enabled {
		if err := run(large)(); err != nil {
			t.Fatal(err)
		}
		t.Skip("allocation counts are not meaningful under -race")
	}
	a1 := scanAllocs(t, run(small))
	a2 := scanAllocs(t, run(large))
	if a1 != a2 {
		t.Errorf("overlay scan allocations grow with candidate count: %v for 60 records vs %v for 600", a1, a2)
	}
}
