package postorder

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"tasm/internal/dict"
	"tasm/internal/tree"
)

func TestItemsPaperExample(t *testing.T) {
	// Definition 2 on the query G of Figure 2: ((b,1),(c,1),(a,3)).
	d := dict.New()
	g := tree.MustParse(d, "{a{b}{c}}")
	items := Items(g)
	want := []struct {
		label string
		size  int
	}{{"b", 1}, {"c", 1}, {"a", 3}}
	for i, w := range want {
		if d.Label(items[i].Label) != w.label || items[i].Size != w.size {
			t.Errorf("item %d = (%s,%d), want (%s,%d)", i, d.Label(items[i].Label), items[i].Size, w.label, w.size)
		}
	}
}

func TestSliceQueueDrains(t *testing.T) {
	q := NewSliceQueue([]Item{{Label: 0, Size: 1}, {Label: 1, Size: 2}})
	it, err := q.Next()
	if err != nil || it.Label != 0 {
		t.Fatalf("first: %v %v", it, err)
	}
	it, err = q.Next()
	if err != nil || it.Label != 1 {
		t.Fatalf("second: %v %v", it, err)
	}
	if _, err := q.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted queue: %v", err)
	}
	if _, err := q.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted queue stays EOF: %v", err)
	}
}

func TestBuildTreeRoundTripQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		d := dict.New()
		tr := tree.Random(d, rand.New(rand.NewSource(seed)), tree.DefaultRandomConfig(n))
		got, err := BuildTree(d, FromTree(tr))
		return err == nil && got.Equal(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestBuildTreeErrors(t *testing.T) {
	d := dict.New()
	a := d.Intern("a")
	cases := map[string][]Item{
		"empty":          {},
		"two roots":      {{a, 1}, {a, 1}},
		"size zero":      {{a, 0}},
		"needs missing":  {{a, 3}},
		"splits subtree": {{a, 1}, {a, 2}, {a, 1}, {a, 3}},
		"unknown label":  {{a, 1}, {a + 1, 2}},
		"negative label": {{-1, 1}},
	}
	for name, items := range cases {
		if _, err := BuildTree(d, NewSliceQueue(items)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestValidateAgreesWithBuildTree(t *testing.T) {
	d := dict.New()
	a := d.Intern("a")
	good := [][]Item{
		{{a, 1}},
		{{a, 1}, {a, 2}},
		{{a, 1}, {a, 1}, {a, 3}},
		{{a, 1}, {a, 2}, {a, 1}, {a, 4}},
	}
	for _, items := range good {
		n, err := Validate(NewSliceQueue(items))
		if err != nil || n != len(items) {
			t.Errorf("Validate(%v) = %d, %v", items, n, err)
		}
	}
	bad := [][]Item{
		{},
		{{a, 1}, {a, 1}},
		{{a, 2}},
		{{a, 1}, {a, 3}},
	}
	for _, items := range bad {
		if _, err := Validate(NewSliceQueue(items)); err == nil {
			t.Errorf("Validate(%v): want error", items)
		}
	}
}

func TestCollect(t *testing.T) {
	d := dict.New()
	tr := tree.MustParse(d, "{a{b}{c}}")
	items, err := Collect(FromTree(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("collected %d items", len(items))
	}
}

type errQueue struct{ err error }

func (q errQueue) Next() (Item, error) { return Item{}, q.err }

func TestCollectPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Collect(errQueue{boom}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if _, err := BuildTree(dict.New(), errQueue{boom}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if _, err := Validate(errQueue{boom}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}
