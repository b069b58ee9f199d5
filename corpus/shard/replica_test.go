package shard_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/dict"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// blockingRecorder blocks queries until cancelled, like blockingSearcher,
// and additionally records the query context so tests can assert the
// race cancelled its losers promptly.
type blockingRecorder struct {
	started chan struct{}
	ctx     atomic.Value // context.Context of the first in-flight query
}

func newBlockingRecorder() *blockingRecorder {
	return &blockingRecorder{started: make(chan struct{})}
}

func (b *blockingRecorder) block(ctx context.Context) error {
	b.ctx.CompareAndSwap(nil, ctx)
	select {
	case <-b.started:
	default:
		close(b.started)
	}
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingRecorder) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	return nil, b.block(ctx)
}

func (b *blockingRecorder) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	return nil, b.block(ctx)
}

func (b *blockingRecorder) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, nil }
func (b *blockingRecorder) NumDocs() (int, bool)                           { return 0, true }
func (b *blockingRecorder) Generation() uint64                             { return 0 }

// breakerSkippedSearcher simulates a replica whose circuit breaker is
// open: it fails instantly with the same error shape a shard.Client
// produces, without any real query work.
type breakerSkippedSearcher struct{ name string }

func (s *breakerSkippedSearcher) err() error {
	return &corpus.ScanError{Shard: s.name, Err: fmt.Errorf("%w (skipping %s)", shard.ErrBreakerOpen, s.name)}
}

//tasm:allow ctxpoll — test stub: fails immediately, no candidate loop to poll from
func (s *breakerSkippedSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	return nil, s.err()
}

//tasm:allow ctxpoll — test stub: fails immediately, no candidate loop to poll from
func (s *breakerSkippedSearcher) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	return nil, s.err()
}

func (s *breakerSkippedSearcher) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, s.err() }
func (s *breakerSkippedSearcher) NumDocs() (int, bool)                           { return 0, false }
func (s *breakerSkippedSearcher) Generation() uint64                             { return 0 }
func (s *breakerSkippedSearcher) Name() string                                   { return s.name }

// fixtureCorpus builds one corpus holding all fixture documents.
func fixtureCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	c := openCorpus(t)
	for _, d := range fixtureDocs {
		addDoc(t, c, d)
	}
	return c
}

var replicaQuery = "{rec{a}{b}{c}}"

// TestReplicaSetPrimaryWins: with a healthy primary and a prohibitive
// hedge delay, the primary answers alone — same results as querying it
// directly, and no hedges are accounted.
func TestReplicaSetPrimaryWins(t *testing.T) {
	leakCheck(t)
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{c, c}, shard.WithHedgeDelay(time.Hour))
	q := tree.MustParse(dict.New(), replicaQuery)

	want, err := c.TopK(context.Background(), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	var stats corpus.Stats
	got, err := rs.TopK(context.Background(), q, 4, corpus.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("replica set differs from its own replica:\n direct %s\n set    %s", nw, ng)
	}
	if stats.Hedges != 0 || len(stats.Hedged) != 0 {
		t.Fatalf("healthy primary still hedged: %+v", stats)
	}
	if stats.Scanned == 0 {
		t.Fatalf("winner's scan stats not adopted: %+v", stats)
	}
}

// TestReplicaSetHedgeWinsCancelsLoser: a stalled primary is hedged after
// the delay, the hedge's answer wins, the loser's context is cancelled
// promptly, and no goroutine outlives the call.
func TestReplicaSetHedgeWinsCancelsLoser(t *testing.T) {
	leakCheck(t)
	stalled := newBlockingRecorder()
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{stalled, c},
		shard.WithHedgeDelay(time.Millisecond), shard.WithReplicaSetName("db0"))
	q := tree.MustParse(dict.New(), replicaQuery)

	var stats corpus.Stats
	got, err := rs.TopK(context.Background(), q, 3, corpus.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("hedge winner differs from direct query:\n direct %s\n set    %s", nw, ng)
	}
	if stats.Hedges < 1 || len(stats.Hedged) == 0 || stats.Hedged[0] != "db0" {
		t.Fatalf("hedge accounting: %+v, want ≥1 hedge naming db0", stats)
	}
	// The loser must be cancelled promptly after the set returned — not
	// only when the caller's context eventually dies.
	loserCtx := stalled.ctx.Load().(context.Context)
	select {
	case <-loserCtx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("losing replica's context not cancelled within 2s of the set answering")
	}
}

// TestReplicaSetHedgeEscalatesDownList: with the primary AND the first
// hedge both stalled (slow, not failing), the hedge timer must re-arm
// and keep escalating down the list — the third replica is reached
// purely by delay and answers. On broken code the timer fires once and
// the query hangs on the two stalled replicas forever.
func TestReplicaSetHedgeEscalatesDownList(t *testing.T) {
	leakCheck(t)
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet(
		[]corpus.Searcher{newBlockingRecorder(), newBlockingRecorder(), c},
		shard.WithHedgeDelay(time.Millisecond), shard.WithReplicaSetName("db0"))
	q := tree.MustParse(dict.New(), replicaQuery)

	done := make(chan struct{})
	var stats corpus.Stats
	var got []corpus.Match
	var err error
	go func() {
		got, err = rs.TopK(context.Background(), q, 3, corpus.WithStats(&stats))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("delay-based escalation never reached the third replica")
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("escalated answer differs from direct query:\n direct %s\n set    %s", nw, ng)
	}
	if stats.Hedges != 2 {
		t.Fatalf("stats.Hedges = %d, want 2 (two timer-based hedges)", stats.Hedges)
	}
}

// TestReplicaSetBatchHedge: the batch path hedges as one unit and the
// loser unwinds — the same race plumbing serves TopKBatch.
func TestReplicaSetBatchHedge(t *testing.T) {
	leakCheck(t)
	stalled := newBlockingRecorder()
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{stalled, c}, shard.WithHedgeDelay(time.Millisecond))
	qs := []*tree.Tree{
		tree.MustParse(dict.New(), replicaQuery),
		tree.MustParse(dict.New(), "{rec{a}{b}}"),
	}
	want, err := c.TopKBatch(context.Background(), qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.TopKBatch(context.Background(), qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if nw, ng := normalize(t, want[i]), normalize(t, got[i]); nw != ng {
			t.Fatalf("batch query %d:\n direct %s\n set    %s", i, nw, ng)
		}
	}
}

// TestReplicaSetImmediateFailover: a replica failing with a backend-side
// error is failed over at once — the prohibitive hedge delay proves the
// race did not wait for the timer.
func TestReplicaSetImmediateFailover(t *testing.T) {
	leakCheck(t)
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{&failingSearcher{}, c}, shard.WithHedgeDelay(time.Hour))
	q := tree.MustParse(dict.New(), replicaQuery)

	done := make(chan struct{})
	var stats corpus.Stats
	var got []corpus.Match
	var err error
	go func() {
		got, err = rs.TopK(context.Background(), q, 3, corpus.WithStats(&stats))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("failover waited for the hedge timer")
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.TopK(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("failover answer differs:\n direct %s\n set    %s", nw, ng)
	}
	if stats.Hedges != 1 {
		t.Fatalf("stats.Hedges = %d, want 1 (the failover)", stats.Hedges)
	}
}

// TestReplicaSetNonRetryableFailsFast: the caller's own mistake (an
// unknown document) is not failed over — every replica would answer the
// same — and surfaces immediately despite healthy spare replicas.
func TestReplicaSetNonRetryableFailsFast(t *testing.T) {
	leakCheck(t)
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{c, c}, shard.WithHedgeDelay(time.Hour))
	q := tree.MustParse(dict.New(), replicaQuery)
	_, err := rs.TopK(context.Background(), q, 3, corpus.WithDocs("ghost"))
	if err == nil || !strings.Contains(err.Error(), `unknown document "ghost"`) {
		t.Fatalf("err = %v, want unknown document", err)
	}
}

// TestReplicaSetCancellation: the caller cancelling releases the race
// and all replica attempts, promptly.
func TestReplicaSetCancellation(t *testing.T) {
	leakCheck(t)
	stalled := newBlockingRecorder()
	rs := shard.NewReplicaSet([]corpus.Searcher{stalled, newBlockingRecorder()}, shard.WithHedgeDelay(time.Hour))
	q := tree.MustParse(dict.New(), replicaQuery)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rs.TopK(ctx, q, 3)
		done <- err
	}()
	<-stalled.started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled replica-set query did not return within 5s")
	}
}

// TestReplicaSetAllDownNamesSet: when every replica fails, the terminal
// error names the set and unwraps to the first replica's ScanError.
func TestReplicaSetAllDownNamesSet(t *testing.T) {
	leakCheck(t)
	rs := shard.NewReplicaSet([]corpus.Searcher{&failingSearcher{}, &failingSearcher{}},
		shard.WithHedgeDelay(0), shard.WithReplicaSetName("db1"))
	q := tree.MustParse(dict.New(), replicaQuery)
	_, err := rs.TopK(context.Background(), q, 3)
	if err == nil {
		t.Fatal("want failure when every replica is down")
	}
	if !strings.Contains(err.Error(), "db1") {
		t.Fatalf("error %v does not name the set db1", err)
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not unwrap to *corpus.ScanError", err)
	}
}

// TestReplicaSetBreakerSkipAccounting: a breaker-open replica is skipped
// for free — the next replica answers, the skip is recorded by replica
// name, and no hedge is counted (no request was sent).
func TestReplicaSetBreakerSkipAccounting(t *testing.T) {
	leakCheck(t)
	c := fixtureCorpus(t)
	rs := shard.NewReplicaSet(
		[]corpus.Searcher{&breakerSkippedSearcher{name: "leafA"}, c},
		shard.WithHedgeDelay(time.Hour))
	q := tree.MustParse(dict.New(), replicaQuery)
	var stats corpus.Stats
	got, err := rs.TopK(context.Background(), q, 3, corpus.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no matches through the surviving replica")
	}
	if len(stats.BreakerSkipped) != 1 || stats.BreakerSkipped[0] != "leafA" {
		t.Fatalf("stats.BreakerSkipped = %v, want [leafA]", stats.BreakerSkipped)
	}
	if stats.Hedges != 0 {
		t.Fatalf("stats.Hedges = %d, want 0 (a breaker skip costs nothing)", stats.Hedges)
	}
}

// TestReplicaSetAllSkipped: every replica breaker-skipped is its own
// terminal error, still errors.Is-reachable as ErrBreakerOpen and
// attributed to the set.
func TestReplicaSetAllSkipped(t *testing.T) {
	leakCheck(t)
	rs := shard.NewReplicaSet(
		[]corpus.Searcher{&breakerSkippedSearcher{name: "leafA"}, &breakerSkippedSearcher{name: "leafB"}},
		shard.WithHedgeDelay(0), shard.WithReplicaSetName("db2"))
	q := tree.MustParse(dict.New(), replicaQuery)
	_, err := rs.TopK(context.Background(), q, 3)
	if !errors.Is(err, shard.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	var se *corpus.ScanError
	if !errors.As(err, &se) || se.Shard != "db2" {
		t.Fatalf("err = %v, want ScanError naming db2", err)
	}
}

// TestReplicaSetNumDocsSkipsNilListing: a replica whose count is
// unknown (NumDocs false, as a never-reached client reports) must not be
// reported as a confident zero — the set falls over to the next replica,
// and reports unknown when none has a count.
func TestReplicaSetNumDocsSkipsNilListing(t *testing.T) {
	dead := &breakerSkippedSearcher{name: "dead"}
	if n, ok := shard.NewReplicaSet([]corpus.Searcher{dead}).NumDocs(); ok {
		t.Fatalf("NumDocs = (%d, true) with no count anywhere, want unknown", n)
	}
	c := fixtureCorpus(t)
	n, ok := shard.NewReplicaSet([]corpus.Searcher{dead, c}).NumDocs()
	if !ok || n != c.Len() {
		t.Fatalf("NumDocs = (%d, %v), want (%d, true) from the healthy replica", n, ok, c.Len())
	}
}

// TestGroupOverReplicaSetsEquivalence is the replicated form of the
// acceptance oracle: a Group over replica sets — including sets whose
// primary is dead or stalled — returns results byte-identical to the
// union corpus.
func TestGroupOverReplicaSetsEquivalence(t *testing.T) {
	union, shards := buildShards(t, fixtureDocs, 3)
	topologies := []struct {
		name  string
		build func(s *corpus.Corpus, i int) corpus.Searcher
	}{
		{"healthy", func(s *corpus.Corpus, i int) corpus.Searcher {
			return shard.NewReplicaSet([]corpus.Searcher{s, s}, shard.WithHedgeDelay(0))
		}},
		{"deadPrimary", func(s *corpus.Corpus, i int) corpus.Searcher {
			return shard.NewReplicaSet([]corpus.Searcher{&failingSearcher{}, s}, shard.WithHedgeDelay(time.Hour))
		}},
		{"stalledPrimary", func(s *corpus.Corpus, i int) corpus.Searcher {
			return shard.NewReplicaSet([]corpus.Searcher{newBlockingRecorder(), s}, shard.WithHedgeDelay(time.Millisecond))
		}},
		{"skippedPrimary", func(s *corpus.Corpus, i int) corpus.Searcher {
			return shard.NewReplicaSet([]corpus.Searcher{&breakerSkippedSearcher{name: "dead"}, s}, shard.WithHedgeDelay(time.Hour))
		}},
	}
	queries := []string{replicaQuery, "{rec{a}{b}}", "{nope}"}
	ctx := context.Background()
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			leakCheck(t)
			members := make([]corpus.Searcher, len(shards))
			for i, s := range shards {
				members[i] = topo.build(s, i)
			}
			g := shard.NewGroup(members...)
			for _, qs := range queries {
				q := tree.MustParse(dict.New(), qs)
				for _, k := range []int{1, 4, 25} {
					want, err := union.TopK(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := g.TopK(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
						t.Errorf("q=%s k=%d:\n union %s\n group %s", qs, k, nw, ng)
					}
				}
			}
		})
	}
}

// TestGroupPartialResults pins the degradation policy: by default a dead
// shard fails the query naming the shard; with WithPartialResults the
// group answers from the survivors and reports the loss in Stats.
func TestGroupPartialResults(t *testing.T) {
	leakCheck(t)
	_, shards := buildShards(t, fixtureDocs, 2)
	g := shard.NewGroup(shards[0], &failingSearcher{})
	q := tree.MustParse(dict.New(), replicaQuery)
	ctx := context.Background()

	// Default: fail loud, naming the dead shard.
	_, err := g.TopK(ctx, q, 5)
	var se *corpus.ScanError
	if err == nil || !errors.As(err, &se) || se.Shard != "shard1" {
		t.Fatalf("default mode: err = %v, want ScanError naming shard1", err)
	}

	// Partial: the survivors' merged answer, with the loss in Stats.
	want, err := shards[0].TopK(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stats corpus.Stats
	got, err := g.TopK(ctx, q, 5, corpus.WithPartialResults(), corpus.WithStats(&stats))
	if err != nil {
		t.Fatalf("partial mode: %v", err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("partial answer differs from the survivor:\n survivor %s\n group    %s", nw, ng)
	}
	if len(stats.Degraded) != 1 || stats.Degraded[0] != "shard1" {
		t.Fatalf("stats.Degraded = %v, want [shard1]", stats.Degraded)
	}
}

// TestGroupPartialBatch: the batch path degrades the same way.
func TestGroupPartialBatch(t *testing.T) {
	leakCheck(t)
	_, shards := buildShards(t, fixtureDocs, 2)
	g := shard.NewGroup(shards[0], &failingSearcher{})
	qs := []*tree.Tree{
		tree.MustParse(dict.New(), replicaQuery),
		tree.MustParse(dict.New(), "{nope}"),
	}
	ctx := context.Background()

	if _, err := g.TopKBatch(ctx, qs, 3); err == nil {
		t.Fatal("default batch mode should fail loud")
	}

	want, err := shards[0].TopKBatch(ctx, qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	var stats corpus.Stats
	got, err := g.TopKBatch(ctx, qs, 3, corpus.WithPartialResults(), corpus.WithStats(&stats))
	if err != nil {
		t.Fatalf("partial batch: %v", err)
	}
	for i := range want {
		if nw, ng := normalize(t, want[i]), normalize(t, got[i]); nw != ng {
			t.Fatalf("batch query %d:\n survivor %s\n group    %s", i, nw, ng)
		}
	}
	if len(stats.Degraded) != 1 || stats.Degraded[0] != "shard1" {
		t.Fatalf("stats.Degraded = %v, want [shard1]", stats.Degraded)
	}
}

// TestGroupPartialAllDownStillFails: partial mode is best-effort, not
// no-effort — with every shard dead the query fails with the root cause.
func TestGroupPartialAllDownStillFails(t *testing.T) {
	leakCheck(t)
	g := shard.NewGroup(&failingSearcher{}, &failingSearcher{})
	q := tree.MustParse(dict.New(), replicaQuery)
	_, err := g.TopK(context.Background(), q, 3, corpus.WithPartialResults())
	var se *corpus.ScanError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("all shards down in partial mode: err = %v, want ScanError", err)
	}
}

// TestGroupPartialCancellationStillFails: the caller's cancellation is
// never converted into a degraded answer.
func TestGroupPartialCancellationStillFails(t *testing.T) {
	leakCheck(t)
	slow := newBlockingSearcher()
	g := shard.NewGroup(fixtureCorpus(t), slow)
	q := tree.MustParse(dict.New(), replicaQuery)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.TopK(ctx, q, 3, corpus.WithPartialResults())
		done <- err
	}()
	<-slow.started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled (not a partial answer)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled partial query did not return within 5s")
	}
}

// TestGroupPartialOverReplicaSets: a replica set whose replicas are all
// down degrades under partial mode like a plain dead shard, reported
// under the set's name.
func TestGroupPartialOverReplicaSets(t *testing.T) {
	leakCheck(t)
	_, shards := buildShards(t, fixtureDocs, 2)
	deadSet := shard.NewReplicaSet([]corpus.Searcher{&failingSearcher{}, &failingSearcher{}},
		shard.WithHedgeDelay(0), shard.WithReplicaSetName("db1"))
	g := shard.NewGroup(shards[0], deadSet)
	q := tree.MustParse(dict.New(), replicaQuery)
	ctx := context.Background()

	if _, err := g.TopK(ctx, q, 5); err == nil {
		t.Fatal("default mode should fail loud")
	}

	want, err := shards[0].TopK(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stats corpus.Stats
	got, err := g.TopK(ctx, q, 5, corpus.WithPartialResults(), corpus.WithStats(&stats))
	if err != nil {
		t.Fatalf("partial mode: %v", err)
	}
	if nw, ng := normalize(t, want), normalize(t, got); nw != ng {
		t.Fatalf("partial answer differs from the survivor:\n survivor %s\n group    %s", nw, ng)
	}
	if len(stats.Degraded) != 1 || stats.Degraded[0] != "db1" {
		t.Fatalf("stats.Degraded = %v, want [db1]", stats.Degraded)
	}
}

// gatedSearcher blocks queries on its own gate channel, deliberately
// ignoring ctx: a worst-case loser whose unwinding — and final trace
// span write — happens strictly after the race returned, the response
// was written and the request released its trace.
type gatedSearcher struct {
	gate chan struct{}
	done chan struct{}
}

func (g *gatedSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	defer close(g.done)
	<-g.gate
	return nil, errors.New("gated")
}

func (g *gatedSearcher) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	defer close(g.done)
	<-g.gate
	return nil, errors.New("gated")
}

func (g *gatedSearcher) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, nil }
func (g *gatedSearcher) NumDocs() (int, bool)                           { return 0, true }
func (g *gatedSearcher) Generation() uint64                             { return 0 }

// TestReplicaSetLoserTraceAfterRelease pins the hedged-loser/trace-pool
// interaction that crashed the live router: the race returns on the
// winner while the loser is still in flight, the request writes its
// response and releases the trace, and only then does the loser finish
// and close its span. The attempt's Retain must keep the slab alive —
// on broken code the late End hits a recycled (emptied or reused) slab
// and panics with an index out of range.
func TestReplicaSetLoserTraceAfterRelease(t *testing.T) {
	leakCheck(t)
	loser := &gatedSearcher{gate: make(chan struct{}), done: make(chan struct{})}
	rs := shard.NewReplicaSet(
		[]corpus.Searcher{loser, fixtureCorpus(t)},
		shard.WithHedgeDelay(0), // race both immediately; the corpus wins
	)

	tr := qtrace.New()
	ctx := qtrace.NewContext(context.Background(), tr)
	if _, err := rs.TopK(ctx, tree.MustParse(dict.New(), replicaQuery), 3); err != nil {
		t.Fatal(err)
	}
	qtrace.Release(tr) // the response was written

	// Churn the pool so a prematurely recycled slab would be visibly
	// reused (or emptied) before the loser's late span write.
	for i := 0; i < 8; i++ {
		qtrace.Release(qtrace.New())
	}

	close(loser.gate) // now the loser unwinds and ends its span
	select {
	case <-loser.done:
	case <-time.After(5 * time.Second):
		t.Fatal("gated loser never unwound")
	}
}
