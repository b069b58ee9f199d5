package docstore

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

func TestImageRoundTrip(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	im, err := ParseImage(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseImage: %v", err)
	}
	d2 := dict.New()
	var r ImageReader
	r.Reset(im, im.Remap(d2))
	got, err := postorder.BuildTree(d2, &r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Errorf("image round trip mismatch: %s vs %s", got, tr)
	}
}

// TestImageReaderReuse pins the pooling contract: one ImageReader reset
// across several documents yields the same items as fresh streaming
// readers, and the drain itself performs zero allocations.
func TestImageReaderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := dict.New()
	var images []*Image
	var remaps [][]int
	for i := 0; i < 3; i++ {
		tr := tree.Random(d, rng, tree.RandomConfig{Nodes: 500 + 100*i, MaxFanout: 5, Labels: 30})
		var buf bytes.Buffer
		if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
			t.Fatal(err)
		}
		im, err := ParseImage(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, im)
		remaps = append(remaps, im.Remap(d))
	}
	var r ImageReader
	allocs := testing.AllocsPerRun(10, func() {
		for i, im := range images {
			r.Reset(im, remaps[i])
			n := uint64(0)
			for {
				if _, err := r.Next(); err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					break
				}
				n++
			}
			if n != im.NodeCount() {
				t.Fatalf("doc %d: read %d items, want %d", i, n, im.NodeCount())
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ImageReader drain allocated %.1f times per run, want 0", allocs)
	}
}

// drainStream parses data with the streaming reader, returning the items
// read before the first error and whether the stream ended cleanly.
func drainStream(d dict.Dict, data []byte) (items []postorder.Item, clean bool, openErr bool) {
	r, err := NewReader(d, bytes.NewReader(data))
	if err != nil {
		return nil, false, true
	}
	for {
		it, err := r.Next()
		if err != nil {
			return items, errors.Is(err, io.EOF), false
		}
		items = append(items, it)
	}
}

// drainImage does the same through ParseImage + ImageReader.
func drainImage(d dict.Dict, data []byte) (items []postorder.Item, clean bool, openErr bool) {
	im, err := ParseImage(data)
	if err != nil {
		return nil, false, true
	}
	var r ImageReader
	r.Reset(im, im.Remap(d))
	for {
		it, err := r.Next()
		if err != nil {
			return items, errors.Is(err, io.EOF), false
		}
		items = append(items, it)
	}
}

// FuzzImageStreamEquivalence is the byte-identity oracle for the mmap
// scan path: over ANY input — valid stores, truncations at
// every boundary, corrupt varints, lying counts — the zero-copy image
// reader and the streaming reader must agree exactly: same open
// verdict, same item sequence, same clean-vs-corrupt ending. The corpus
// picks between the two paths by platform and configuration, so any
// divergence here is a silent cross-platform answer change.
func FuzzImageStreamEquivalence(f *testing.F) {
	valid := validStore(f)
	f.Add(valid)
	f.Add(splitStore(f))
	f.Add([]byte{})
	f.Add(append([]byte("TASMPQ2\n"), 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte("TASMPQ2\n"))
	f.Add(append([]byte("TASMPQ2\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte("TASMPQ2\n"), bytes.Repeat([]byte{0x80}, 11)...))
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] = 0x7f
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		sItems, sClean, sOpenErr := drainStream(dict.New(), data)
		iItems, iClean, iOpenErr := drainImage(dict.New(), data)
		if sOpenErr != iOpenErr {
			t.Fatalf("open verdict differs: stream openErr=%v, image openErr=%v", sOpenErr, iOpenErr)
		}
		if sOpenErr {
			return
		}
		if sClean != iClean {
			t.Fatalf("ending differs: stream clean=%v, image clean=%v", sClean, iClean)
		}
		if len(sItems) != len(iItems) {
			t.Fatalf("item count differs: stream %d, image %d", len(sItems), len(iItems))
		}
		for i := range sItems {
			if sItems[i] != iItems[i] {
				t.Fatalf("item %d differs: stream %+v, image %+v", i, sItems[i], iItems[i])
			}
		}
		// Columns are a third view of the same items, and only ever of a
		// store that streams cleanly to its end.
		im, _ := ParseImage(data)
		cols, err := im.Columns(im.Remap(dict.New()))
		if err != nil {
			return
		}
		if !sClean || cols.Len() != len(sItems) {
			t.Fatalf("columns built (%d nodes) from a store that streams %d items, clean=%v", cols.Len(), len(sItems), sClean)
		}
		for i, it := range sItems {
			if int(cols.Labels()[i]) != it.Label || int(cols.Sizes()[i]) != it.Size {
				t.Fatalf("node %d differs: stream %+v, columns (%d,%d)", i, it, cols.Labels()[i], cols.Sizes()[i])
			}
		}
	})
}

// TestImageRemapOverlayStable pins the remap-caching contract: a remap
// computed against a frozen base stays valid under any overlay of that
// base, because overlay ids strictly extend the base's.
func TestImageRemapOverlayStable(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{a{b}{c}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	im, err := ParseImage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the corpus open flow: remap into the still-mutable base,
	// then freeze and serve overlays on top.
	base := dict.New()
	base.Intern("pre-existing")
	remap := im.Remap(base)
	frozen := base.Freeze()

	ov := dict.NewOverlay(frozen)
	ov.Intern("query-only-label")
	var r ImageReader
	r.Reset(im, remap)
	for {
		it, err := r.Next()
		if err != nil {
			break
		}
		if got := ov.Label(it.Label); got != frozen.Label(it.Label) {
			t.Fatalf("label id %d resolves to %q under overlay, %q under base", it.Label, got, frozen.Label(it.Label))
		}
	}
}

// TestImageColumnsRejectsCorrupt: the column decoder trusts nothing the
// header or the items claim. A node count the bytes present cannot hold
// is refused before anything is allocated (the allocation is sized by the
// count: the first case would otherwise ask for terabytes);
// ids that do not fit a column cell and sizes that do not tile are
// refused by the build.
func TestImageColumnsRejectsCorrupt(t *testing.T) {
	header := func(count ...byte) []byte {
		return append([]byte("TASMPQ2\n\x01\x01x"), count...) // one label "x", then the node count
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		remap []int
	}{
		{"count far beyond the bytes present", append(header(0xff, 0xff, 0xff, 0xff, 0xff, 0x1f), 0, 1, 0, 1), []int{0}},
		{"count one more than the bytes can hold", append(header(3), 0, 1, 0, 1, 0), []int{0}},
		{"label id outside int32", append(header(1), 0, 1), []int{math.MaxInt32 + 1}},
		{"size exceeding position", append(header(2), 0, 1, 0, 3), []int{0}},
		{"size zero", append(header(2), 0, 1, 0, 0), []int{0}},
		{"crossing subtrees", append(header(3), 0, 1, 0, 2, 0, 2), []int{0}},
	} {
		im, err := ParseImage(tc.data)
		if err != nil {
			t.Fatalf("%s: ParseImage: %v", tc.name, err)
		}
		if cols, err := im.Columns(tc.remap); err == nil {
			t.Errorf("%s: built columns of %d nodes, want an error", tc.name, cols.Len())
		}
	}
	// Intact, for contrast: a forest of two 2-node trees.
	im, err := ParseImage(append(header(4), 0, 1, 0, 2, 0, 1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	cols, err := im.Columns([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	// 12 bytes for each of the 4 nodes, 8 for the one distinct label, 4 for
	// the final posting offset.
	if got, want := cols.Sizes(), []int32{1, 2, 1, 2}; !slices.Equal(got, want) || cols.Labels()[3] != 7 || cols.Bytes() != 60 {
		t.Errorf("columns %v / %v (%d bytes), want sizes %v, labels all 7, 60 bytes", cols.Labels(), got, cols.Bytes(), want)
	}
}

func TestParseImageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTMAGIC"),
		[]byte("TASMPQ2\n"),
		// Label length pointing past the end of the image.
		append([]byte("TASMPQ2\n"), 1, 0xff, 0x7f),
	}
	for i, data := range cases {
		if _, err := ParseImage(data); err == nil {
			t.Errorf("case %d: ParseImage accepted garbage", i)
		}
	}
}
