package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

func TestRoundTrip(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}")
	items := postorder.Items(tr)

	var buf bytes.Buffer
	if err := WriteItems(&buf, d, items); err != nil {
		t.Fatal(err)
	}
	// Read back into a fresh dictionary.
	d2 := dict.New()
	r, err := NewReader(d2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := postorder.BuildTree(d2, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Errorf("round trip mismatch: %s vs %s", got, tr)
	}
}

// TestStoreHoldsOnlyItsLabels: a store written under a large dictionary
// lists only the labels its items use, in ascending id order, and reads
// back as the same document.
func TestStoreHoldsOnlyItsLabels(t *testing.T) {
	d := dict.New()
	for i := range 10000 {
		d.Intern(fmt.Sprintf("l%d", i))
	}
	tr := tree.MustParse(d, "{l9000{l42}{l9000}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	im, err := ParseImage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := im.Labels(); !slices.Equal(got, []string{"l42", "l9000"}) {
		t.Fatalf("label table %q, want [l42 l9000]", got)
	}
	if err := Verify(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	d2 := dict.New()
	r, err := NewReader(d2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := postorder.BuildTree(d2, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != tr.String() {
		t.Errorf("round trip %s, want %s", got, tr)
	}
}

func TestDictionaryMerging(t *testing.T) {
	// Reading into a dictionary that already has entries must remap ids.
	d := dict.New()
	tr := tree.MustParse(d, "{a{b}{c}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	d2 := dict.New()
	d2.Intern("zzz")
	d2.Intern("b") // pre-existing overlap
	r, err := NewReader(d2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := postorder.BuildTree(d2, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Errorf("remapped round trip mismatch: %s vs %s", got, tr)
	}
}

func TestRemaining(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{a{b}{c}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dict.New(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 3 {
		t.Errorf("Remaining = %d, want 3", r.Remaining())
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 2 {
		t.Errorf("Remaining after one read = %d, want 2", r.Remaining())
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(dict.New(), bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(dict.New(), bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{a{b}{c}}")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut past the 4-byte CRC trailer into the last item, so the reader
	// actually runs out of item bytes.
	r, err := NewReader(dict.New(), bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("truncated stream read without error")
	}
}

func TestWriteValidation(t *testing.T) {
	d := dict.New()
	l := d.Intern("a")
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, []postorder.Item{{Label: 99, Size: 1}}); err == nil {
		t.Error("out-of-dictionary label accepted")
	}
	if err := WriteItems(&buf, d, []postorder.Item{{Label: l, Size: 0}}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestLargeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := dict.New()
	tr := tree.Random(d, rng, tree.RandomConfig{Nodes: 5000, MaxFanout: 6, Labels: 40})
	var buf bytes.Buffer
	if err := WriteItems(&buf, d, postorder.Items(tr)); err != nil {
		t.Fatal(err)
	}
	d2 := dict.New()
	r, err := NewReader(d2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := postorder.BuildTree(d2, r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Error("5000-node round trip mismatch")
	}
}
