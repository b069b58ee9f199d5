package postorder

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/tree"
)

// TestColumnsPostings pins the label postings BuildColumns inverts from
// the label column, over random trees and forests and the empty
// document, with label ids dense (the counting route) and spread far
// apart (the sorting route): label ids strictly ascending, offsets tiling
// [0, n], every postorder id exactly once, ascending within its label and
// filed under the label it carries; both routes build the same arrays;
// Postings finds each run and nothing else; Bytes counts all five arrays.
func TestColumnsPostings(t *testing.T) {
	dense, spread := dict.New(), dict.New()
	// In spread, the ids a random tree's labels get lie a thousand apart.
	for i := 0; i < 40; i++ {
		for j := 0; j < 1000; j++ {
			spread.Intern(fmt.Sprintf("filler%d.%d", i, j))
		}
		spread.Intern(fmt.Sprintf("l%d", i))
	}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		d := dense
		if iter%2 == 1 {
			d = spread
		}
		var items []Item
		if iter > 0 {
			doc := tree.Random(d, rng, tree.RandomConfig{Nodes: 1 + rng.Intn(300), MaxFanout: 5, Labels: 1 + rng.Intn(40)})
			items = Items(doc)
			if iter%3 == 0 && len(items) > 1 {
				items = items[:len(items)-1] // drop the root: a forest of its children
			}
		}
		c, err := BuildColumns(NewSliceQueue(items), 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(items)
		if n > 0 {
			other := &Columns{labels: c.labels, post: make([]int32, n)}
			lo, hi := slices.Min(c.labels), slices.Max(c.labels)
			if int(hi-lo) < n {
				other.invertBySort()
			} else {
				other.invertByCount(lo, int(hi-lo)+1)
			}
			if !slices.Equal(other.keys, c.keys) || !slices.Equal(other.offs, c.offs) || !slices.Equal(other.post, c.post) {
				t.Fatalf("iter %d: the counting and the sorting route disagree on label ids %d..%d", iter, lo, hi)
			}
		}
		if !slices.IsSorted(c.keys) || len(slices.Compact(slices.Clone(c.keys))) != len(c.keys) {
			t.Fatalf("iter %d: label ids not strictly ascending: %v", iter, c.keys)
		}
		if len(c.offs) != len(c.keys)+1 || c.offs[0] != 0 || c.offs[len(c.keys)] != int32(n) || len(c.post) != n {
			t.Fatalf("iter %d: %d offsets %v for %d labels over %d postings of %d nodes", iter, len(c.offs), c.offs, len(c.keys), len(c.post), n)
		}
		seen := make([]bool, n+1)
		for j, label := range c.keys {
			run := c.post[c.offs[j]:c.offs[j+1]]
			if len(run) == 0 || !slices.IsSorted(run) {
				t.Fatalf("iter %d: label %d has postings %v, want a non-empty ascending run", iter, label, run)
			}
			if got := c.Postings(int(label)); !slices.Equal(got, run) {
				t.Fatalf("iter %d: Postings(%d) = %v, want %v", iter, label, got, run)
			}
			for _, id := range run {
				if id < 1 || int(id) > n || seen[id] {
					t.Fatalf("iter %d: postorder id %d of %d posted twice or out of range", iter, id, n)
				}
				seen[id] = true
				if c.labels[id-1] != label {
					t.Fatalf("iter %d: node %d carries label %d, posted under %d", iter, id, c.labels[id-1], label)
				}
			}
		}
		if slices.Contains(seen[1:], false) {
			t.Fatalf("iter %d: a node is missing from the postings", iter)
		}
		for _, absent := range []int{-1, d.Len() + 1, math.MaxInt32 + 1} {
			if got := c.Postings(absent); got != nil {
				t.Fatalf("iter %d: Postings(%d) = %v for a label no node carries", iter, absent, got)
			}
		}
		if want := int64(12*n + 8*len(c.keys) + 4); c.Bytes() != want {
			t.Fatalf("iter %d: Bytes = %d, want %d", iter, c.Bytes(), want)
		}
	}
}
