package core

// Context plumbing tests: scans poll their context once per visited
// candidate — every ring-buffer candidate; a column scan steps over runs
// of gated candidates between polls — so a cancelled request stops
// mid-scan (without draining the document stream) — and the poll costs no
// allocations (see alloc_test.go for the AllocsPerRun pin with a context
// installed).

import (
	"context"
	"errors"
	"testing"

	"tasm/internal/dict"
	"tasm/internal/postorder"
	"tasm/internal/ranking"
	"tasm/internal/tree"
)

// cancellingQueue wraps a queue and cancels a context after yielding n
// items, then counts how many more are consumed — a deterministic way to
// cancel "mid-scan".
type cancellingQueue struct {
	inner  postorder.Queue
	after  int
	cancel context.CancelFunc
	served int
	extra  int
}

func (q *cancellingQueue) Next() (postorder.Item, error) {
	it, err := q.inner.Next()
	if err != nil {
		return it, err
	}
	q.served++
	if q.served == q.after {
		q.cancel()
	} else if q.served > q.after {
		q.extra++
	}
	return it, nil
}

// TestScanStopsMidStream: cancelling during a PostorderStream scan
// returns context.Canceled and abandons the stream long before its end.
func TestScanStopsMidStream(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{rec{a}{b}}")
	items := recordDoc(t, d, 5000)

	for _, tc := range []struct {
		name string
		run  func(docQ postorder.Queue, opts Options) error
	}{
		{"stream", func(docQ postorder.Queue, opts Options) error {
			_, err := PostorderStream(q, docQ, 2, opts)
			return err
		}},
		{"streamInto", func(docQ postorder.Queue, opts Options) error {
			return PostorderStreamInto(q, docQ, ranking.New(2), 0, opts)
		}},
		{"batch", func(docQ postorder.Queue, opts Options) error {
			_, err := PostorderBatch([]*tree.Tree{q}, docQ, 2, opts)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cq := &cancellingQueue{inner: postorder.NewSliceQueue(items), after: 100, cancel: cancel}
			err := tc.run(cq, Options{NoTrees: true, CT: 1, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The ring buffer may legitimately read ahead to complete the
			// candidate in flight (bounded by τ), but must not drain the
			// stream: cancelling after 100 of 20001 items leaves the vast
			// majority unread.
			if cq.extra > 1000 {
				t.Errorf("scan consumed %d items after cancellation (of %d total): not stopping mid-scan", cq.extra, len(items))
			}
		})
	}
}

// TestNilCtxMeansBackground: scans without a context behave exactly as
// before the ctx plumbing existed.
func TestNilCtxMeansBackground(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{rec{a}{b}}")
	items := recordDoc(t, d, 50)
	withCtx, err := PostorderStream(q, postorder.NewSliceQueue(items), 3, Options{Ctx: context.Background(), NoTrees: true, CT: 1})
	if err != nil {
		t.Fatal(err)
	}
	without, err := PostorderStream(q, postorder.NewSliceQueue(items), 3, Options{NoTrees: true, CT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(withCtx) != len(without) {
		t.Fatalf("result lengths differ: %d vs %d", len(withCtx), len(without))
	}
	for i := range withCtx {
		if withCtx[i] != without[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, withCtx[i], without[i])
		}
	}
}

// TestCancelledBeforeScan: an already-cancelled context fails immediately
// without touching the stream.
func TestCancelledBeforeScan(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{a}")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eof := postorder.NewSliceQueue(nil)
	if _, err := PostorderStream(q, eof, 1, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancellingProbe cancels a context once it has seen cancelAt candidates
// and counts the candidates.
type cancellingProbe struct {
	candidates, cancelAt int
	cancel               context.CancelFunc
}

func (p *cancellingProbe) Candidate(int) {
	if p.candidates++; p.candidates == p.cancelAt {
		p.cancel()
	}
}
func (p *cancellingProbe) Pruned(int)          {}
func (p *cancellingProbe) RelevantSubtree(int) {}

// TestColumnScanCancelled: a context cancelled before or during a column
// scan makes it return ctx.Err() itself, within one candidate of the
// cancellation.
func TestColumnScanCancelled(t *testing.T) {
	d := dict.New()
	q := tree.MustParse(d, "{rec{a}{b}}")
	cols, err := postorder.BuildColumns(postorder.NewSliceQueue(recordDoc(t, d, 5000)), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelAt := range []int{0, 100} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &cancellingProbe{cancelAt: cancelAt, cancel: cancel}
		if cancelAt == 0 {
			cancel()
		}
		_, err := columnsTopK([]*tree.Tree{q}, cols, 2, Options{Ctx: ctx, Probe: p, CT: 1})
		if err != ctx.Err() || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d candidates: err = %v, want ctx.Err()", cancelAt, err)
		}
		if p.candidates > cancelAt {
			t.Errorf("cancel after %d candidates: %d candidates scanned", cancelAt, p.candidates)
		}
		cancel()
	}
}
