package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/tree"
)

// firstSplit returns the 0-based index of the first node of items whose
// subtree interval starts inside an earlier node's — the first node the
// sizes do not nest at, which BuildColumns reports — or −1 when they nest.
// Every size must lie in 1..position.
func firstSplit(items []postorder.Item) int {
	for i, it := range items {
		lml := i - it.Size + 1
		for j := lml; j < i; j++ {
			if j-items[j].Size+1 < lml {
				return i
			}
		}
	}
	return -1
}

// TestNonNestingStreams: a stream whose sizes each lie in 1..position but
// do not nest is refused with an error, never a panic, whenever the first
// node they fail to nest at is within τ — the ring holds all of such a
// node's subtree, so the scan can see it; a split made by a larger node
// is beyond bounded memory (postorder.Validate sees it). A stream that
// nests is never refused. Random streams of 2–13 nodes, each size uniform
// in 1..position, against queries whose τ = 2|Q|+k lies in 3..9.
func TestNonNestingStreams(t *testing.T) {
	d := dict.New()
	labels := []int{d.Intern("a"), d.Intern("b"), d.Intern("c")}
	queries := []*tree.Tree{tree.MustParse(d, "{a}"), tree.MustParse(d, "{a{b}}"), tree.MustParse(d, "{a{b}{c}}")}
	rng := rand.New(rand.NewSource(1))
	var nesting, refused, seen, answered int
	for iter := 0; iter < 20000; iter++ {
		items := make([]postorder.Item, 2+rng.Intn(12))
		for i := range items {
			items[i] = postorder.Item{Label: labels[rng.Intn(len(labels))], Size: 1 + rng.Intn(i+1)}
		}
		q, k := queries[rng.Intn(len(queries))], 1+rng.Intn(3)
		tau := 2*q.Size() + k
		split := firstSplit(items)
		if _, err := postorder.BuildColumns(postorder.NewSliceQueue(items), 0); (err == nil) != (split < 0) {
			t.Fatalf("BuildColumns err %v, first split at %d: %v", err, split, items)
		}
		ctx := fmt.Sprintf("stream %v, τ=%d, first split at node %d", items, tau, split+1)
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: the scan panicked: %v", ctx, p)
				}
			}()
			_, err = PostorderStream(q, postorder.NewSliceQueue(items), k, Options{})
		}()
		switch {
		case split < 0:
			nesting++
			if err != nil {
				t.Fatalf("%s: a stream that nests was refused: %v", ctx, err)
			}
		case items[split].Size <= tau:
			seen++
			if err == nil {
				t.Fatalf("%s: a split by a node within τ went unseen", ctx)
			}
		case err != nil:
			refused++
		default:
			answered++
		}
	}
	t.Logf("%d streams nest; %d split first within τ, all refused; of the %d split first above τ, %d are refused and %d answered",
		nesting, seen, refused+answered, refused, answered)
}
