package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"tasm/corpus"
	"tasm/internal/qtrace"
	"tasm/internal/tree"
)

// DefaultHedgeDelay is the hedge delay a NewReplicaSet starts with: long
// enough that a healthy primary answers most queries alone, short enough
// that a stalled one costs tail latency, not a timeout.
const DefaultHedgeDelay = 100 * time.Millisecond

// ReplicaSet is a corpus.Searcher over N interchangeable replicas of one
// shard — Searchers holding the same documents (same names, same
// content, ingested in the same order), typically shard.Clients pointing
// at tasmd processes serving copies of one corpus directory.
//
// A query goes to the primary (the first replica) immediately. If the
// primary has not answered within the hedge delay, the same query is
// hedged to the next replica — and so on down the list — and the first
// successful answer wins; the losers are cancelled through the standard
// context plumbing, so a hedge that loses stops paying for its scan
// mid-flight. A replica that fails with a retryable (backend-side)
// error is failed over immediately, without waiting for the delay, and
// a replica whose circuit breaker is open is skipped without a network
// round trip. The query fails only when every replica has failed.
//
// Because replicas hold identical documents, whichever replica answers
// produces the same ranking: a Group composes over ReplicaSets exactly
// as over plain shards, and the group's shared cutoff keeps pruning
// across whichever replica answers. A ReplicaSet is safe for concurrent
// use.
type ReplicaSet struct {
	name       string
	replicas   []child
	hedgeDelay time.Duration
}

var _ corpus.Searcher = (*ReplicaSet)(nil)

// ReplicaOption configures a ReplicaSet.
type ReplicaOption func(*ReplicaSet)

// WithHedgeDelay sets how long the set waits for the current attempt
// before hedging the query to the next replica (default
// DefaultHedgeDelay). d <= 0 hedges immediately: every replica is
// queried at once and the first answer wins.
func WithHedgeDelay(d time.Duration) ReplicaOption {
	return func(rs *ReplicaSet) { rs.hedgeDelay = d }
}

// WithReplicaSetName overrides the name the set reports in errors and to
// a surrounding Group (default: the replicas' names joined with "|").
// Only tests set it.
func WithReplicaSetName(name string) ReplicaOption {
	return func(rs *ReplicaSet) { rs.name = name }
}

// NewReplicaSet returns a Searcher over interchangeable replicas in
// priority order: replicas[0] is the primary, later replicas serve
// hedges and failovers.
func NewReplicaSet(replicas []corpus.Searcher, opts ...ReplicaOption) *ReplicaSet {
	rs := &ReplicaSet{
		replicas:   make([]child, len(replicas)),
		hedgeDelay: DefaultHedgeDelay,
	}
	names := make([]string, len(replicas))
	for i, r := range replicas {
		name := fmt.Sprintf("replica%d", i)
		if n, ok := r.(namer); ok && n.Name() != "" {
			name = n.Name()
		}
		rs.replicas[i] = child{name: name, s: r}
		names[i] = name
	}
	for _, o := range opts {
		o(rs)
	}
	if rs.name == "" {
		rs.name = strings.Join(names, "|")
	}
	return rs
}

// Name returns the set's name; a Group uses it to attribute failures.
func (rs *ReplicaSet) Name() string { return rs.name }

// Len returns the number of replicas.
func (rs *ReplicaSet) Len() int { return len(rs.replicas) }

// TopK is TopKBatch for a batch of one.
//
//tasm:allow ctxpoll — cancellation is delegated to TopKBatch
func (rs *ReplicaSet) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	if err := corpus.ValidateQuery(q, k); err != nil {
		return nil, err
	}
	results, err := rs.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TopKBatch answers the queries from whichever replica wins the hedged
// race (a batch hedges as one unit: replicas answer whole batches).
//
//tasm:allow ctxpoll — cancellation is delegated: race runs each replica Searcher under a derived ctx, replicas poll per candidate, and a ctx error from an attempt aborts the race
func (rs *ReplicaSet) TopKBatch(ctx context.Context, queries []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	cfg := corpus.ResolveQueryOptions(opts...)
	if err := corpus.ValidateBatch(queries, k, &cfg); err != nil {
		return nil, err
	}
	return rs.race(ctx, &cfg, queries, k)
}

// replicaAttempt is one replica's answer in the race.
type replicaAttempt struct {
	idx   int
	res   [][]corpus.Match
	stats corpus.Stats
	err   error
}

// race runs the hedged request loop: launch the primary, hedge down the
// replica list on the hedge timer, fail over immediately on retryable
// errors, skip breaker-open replicas for free, adopt the first success
// and cancel the rest. Losing attempts are cancelled through the derived
// context; their goroutines drain into a buffered channel, so nothing
// leaks even though race returns before they finish unwinding. Each
// attempt retains the request trace for the same reason: a loser's final
// span write may land after the response was written and the trace
// released, and must not hit a recycled slab.
//
// Every attempt gets a private Stats (two replicas must never write one
// struct concurrently); the winner's scan statistics are adopted and the
// race's own fault accounting (hedges fired, breaker skips) merged in,
// then stored through cfg.Stats.
func (rs *ReplicaSet) race(ctx context.Context, cfg *corpus.QueryConfig, queries []*tree.Tree, k int) ([][]corpus.Match, error) {
	if len(rs.replicas) == 0 {
		return nil, fmt.Errorf("shard: replica set %s has no replicas", rs.name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(rs.replicas)
	results := make(chan replicaAttempt, n)
	tr := qtrace.FromContext(ctx)
	launch := func(i int) {
		// The attempt may lose the race and unwind after the request's
		// response has been written and its trace released; retaining
		// keeps the slab alive until this goroutine's last span write.
		tr.Retain()
		go func() {
			defer qtrace.Release(tr)
			childCfg := *cfg
			var st corpus.Stats
			childCfg.Stats = &st
			span := tr.Begin(qtrace.SpanShard, rs.replicas[i].name)
			res, err := rs.replicas[i].s.TopKBatch(ctx, queries, k, corpus.WithConfig(childCfg))
			tr.End(span)
			results <- replicaAttempt{idx: i, res: res, stats: st, err: err}
		}()
	}

	launched, pending := 1, 1
	launch(0)
	var fault corpus.Stats // the race's own hedge/failover/breaker accounting
	hedges := 0

	var timer *time.Timer
	var timerC <-chan time.Time
	if n > 1 {
		if rs.hedgeDelay <= 0 {
			for launched < n {
				launch(launched)
				launched++
				pending++
				hedges++
			}
		} else {
			timer = time.NewTimer(rs.hedgeDelay)
			defer timer.Stop()
			timerC = timer.C
		}
	}

	var errs []error
	for {
		select {
		case <-timerC:
			if launched < n {
				launch(launched)
				launched++
				pending++
				hedges++
			}
			// Re-arm for the next replica down the list: the fired channel
			// is drained, so without a Reset the escalation would stop at
			// the first hedge and leave later replicas reachable only
			// through explicit failures.
			if launched < n {
				timer.Reset(rs.hedgeDelay)
			} else {
				timerC = nil
			}
		case a := <-results:
			pending--
			if a.err == nil {
				st := a.stats
				if hedges > 0 {
					fault.Hedges += uint64(hedges)
					fault.Hedged = append(fault.Hedged, rs.name)
				}
				st.MergeFault(&fault)
				if cfg.Stats != nil {
					*cfg.Stats = st
				}
				return a.res, nil
			}
			// The losing attempt's own fault accounting (retries it burned
			// before failing) still happened: fold it into the race's
			// accumulator so the winner's merged stats report it.
			fault.MergeFault(&a.stats)
			// The race's own cancellation of losers never reaches here as a
			// verdict (we return on the first success); a context error
			// therefore means the caller gave up.
			if errors.Is(a.err, context.Canceled) || errors.Is(a.err, context.DeadlineExceeded) {
				return nil, a.err
			}
			if !retryableError(a.err) {
				// The caller's mistake (unknown document, bad query): every
				// replica would answer the same, so hedging cannot help.
				return nil, a.err
			}
			if errors.Is(a.err, ErrBreakerOpen) {
				// Skipped for free by an open breaker: account the skip and
				// move on without counting a hedge — no request was sent.
				fault.BreakerSkipped = append(fault.BreakerSkipped, rs.replicas[a.idx].name)
			} else {
				errs = append(errs, a.err)
			}
			if launched < n {
				// Immediate failover: don't wait for the hedge timer when
				// the current attempt has already failed.
				launch(launched)
				launched++
				pending++
				if !errors.Is(a.err, ErrBreakerOpen) {
					hedges++
				}
			} else if pending == 0 {
				return nil, rs.allFailed(errs)
			}
		}
	}
}

// allFailed composes the terminal error of a race no replica survived,
// wrapping the first real failure (breaker skips are bookkeeping, not
// causes) so errors.Is/As still reach the root cause.
func (rs *ReplicaSet) allFailed(errs []error) error {
	if len(errs) == 0 {
		// Every replica was breaker-skipped: the shard is known dead.
		return &corpus.ScanError{Shard: rs.name, Err: fmt.Errorf("all %d replicas skipped: %w", len(rs.replicas), ErrBreakerOpen)}
	}
	if len(rs.replicas) == 1 {
		return errs[0] // a pass-through set adds no information
	}
	return fmt.Errorf("shard %s: all %d replicas failed: %w", rs.name, len(rs.replicas), errs[0])
}

// retryableError reports whether another replica might succeed where
// this one failed: backend-side scan errors (dead or broken replica)
// qualify, the caller's own mistakes and cancellations do not.
func retryableError(err error) bool {
	var se *corpus.ScanError
	return errors.As(err, &se)
}

// Docs lists the documents from the first replica that can list,
// failing over down the list (replicas are interchangeable by contract);
// it fails only when every replica does, attributed to the set.
func (rs *ReplicaSet) Docs(ctx context.Context) ([]corpus.DocInfo, error) {
	var firstErr error
	for i := range rs.replicas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		docs, err := rs.replicas[i].s.Docs(ctx)
		if err == nil {
			return docs, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		return nil, fmt.Errorf("shard: replica set %s has no replicas", rs.name)
	}
	return nil, attribute(rs.name, firstErr)
}

// Generation returns the largest generation any replica reports.
// Replicas of one shard hold the same document set, so their generations
// agree in steady state; during an ingest rollout the max is the most
// recent view, and it never repeats a value for a different document set
// because every replica's generation is monotone.
func (rs *ReplicaSet) Generation() uint64 {
	var gen uint64
	for i := range rs.replicas {
		if g := rs.replicas[i].s.Generation(); g > gen {
			gen = g
		}
	}
	return gen
}

// NumDocs returns the first known count down the replica list
// (replicas are interchangeable): a replica that has never been reached
// is skipped rather than reported as a confident zero.
func (rs *ReplicaSet) NumDocs() (int, bool) {
	for i := range rs.replicas {
		if n, known := rs.replicas[i].s.NumDocs(); known {
			return n, true
		}
	}
	return 0, false
}
