package shard_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/tree"
)

// blockingSearcher blocks every query until its context is cancelled —
// the deterministic stand-in for a slow shard.
type blockingSearcher struct {
	started chan struct{} // closed (once) when a query begins blocking
}

func newBlockingSearcher() *blockingSearcher {
	return &blockingSearcher{started: make(chan struct{})}
}

func (b *blockingSearcher) block(ctx context.Context) error {
	select {
	case <-b.started:
	default:
		close(b.started)
	}
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	return nil, b.block(ctx)
}

func (b *blockingSearcher) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	return nil, b.block(ctx)
}

func (b *blockingSearcher) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, nil }
func (b *blockingSearcher) NumDocs() (int, bool)                           { return 0, true }
func (b *blockingSearcher) Generation() uint64                             { return 0 }

// leakCheck is a hand-rolled goroutine-leak detector: it records the
// goroutine count up front and fails the test if it has not returned to
// that level (with slack for runtime background goroutines) shortly after
// the test body finishes.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestGroupCancellationPrompt: cancelling the caller's context releases a
// group fan-out whose shards never answer on their own, promptly and
// without leaking the scatter goroutines.
func TestGroupCancellationPrompt(t *testing.T) {
	leakCheck(t)
	slow := newBlockingSearcher()
	g := shard.NewGroup(openCorpus(t), slow)
	q := tree.MustParse(dict.New(), "{a{b}}")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.TopK(ctx, q, 3)
		done <- err
	}()
	<-slow.started // the fan-out reached the slow shard
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled group query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled group query did not return within 5s")
	}
}

// TestGroupDeadline: an already-expired deadline fails the fan-out with
// DeadlineExceeded rather than hanging on a shard that never answers.
func TestGroupDeadline(t *testing.T) {
	leakCheck(t)
	g := shard.NewGroup(openCorpus(t), newBlockingSearcher())
	q := tree.MustParse(dict.New(), "{a}")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := g.TopKBatch(ctx, []*tree.Tree{q}, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestGroupFailureCancelsSiblings: one shard failing cancels the others'
// contexts (they stop paying for a query whose answer is already doomed)
// and no goroutine outlives the call.
func TestGroupFailureCancelsSiblings(t *testing.T) {
	leakCheck(t)
	failing := &failingSearcher{}
	slow := newBlockingSearcher()
	g := shard.NewGroup(failing, slow)
	q := tree.MustParse(dict.New(), "{a}")
	_, err := g.TopK(context.Background(), q, 2)
	if err == nil {
		t.Fatal("want the failing shard's error")
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != "shard0" {
		t.Fatalf("error %v not attributed to shard0", err)
	}
}

type failingSearcher struct{}

//tasm:allow ctxpoll — test stub: fails immediately, no candidate loop to poll from
func (f *failingSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	return nil, &corpus.ScanError{Doc: "broken", Err: fmt.Errorf("store corrupt")}
}

//tasm:allow ctxpoll — test stub: fails immediately, no candidate loop to poll from
func (f *failingSearcher) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	return nil, &corpus.ScanError{Doc: "broken", Err: fmt.Errorf("store corrupt")}
}

func (f *failingSearcher) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, nil }
func (f *failingSearcher) NumDocs() (int, bool)                           { return 0, true }
func (f *failingSearcher) Generation() uint64                             { return 0 }

// TestCorpusCancellationMidScan: a context cancelled while a corpus TopK
// run is underway stops the scan and returns context.Canceled — through
// the real file-backed scan path, not a stub.
func TestCorpusCancellationMidScan(t *testing.T) {
	c := openCorpus(t)
	// Enough identical records that the scan is not instantaneous.
	var sb []byte
	sb = append(sb, "{r"...)
	for i := 0; i < 2000; i++ {
		sb = append(sb, "{rec{a}{b}{c}{d}}"...)
	}
	sb = append(sb, '}')
	addDoc(t, c, docSpec{"big", string(sb)})

	q := tree.MustParse(dict.New(), "{rec{a}{b}{c}}")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort before or during doc 1
	if _, err := c.TopK(ctx, q, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled corpus TopK returned %v, want context.Canceled", err)
	}
	if _, err := c.TopKBatch(ctx, []*tree.Tree{q}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled corpus TopKBatch returned %v, want context.Canceled", err)
	}
}
