package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"tasm/corpus"
	"tasm/corpus/shard"
	"tasm/internal/tree"
)

// slowSearcher blocks queries until the request context is cancelled —
// the deterministic "slow scan" for the shutdown regression test. The ctx
// plumbing is exactly what a real corpus scan polls per candidate.
type slowSearcher struct {
	started chan struct{}
}

func (s *slowSearcher) TopK(ctx context.Context, q *tree.Tree, k int, opts ...corpus.QueryOption) ([]corpus.Match, error) {
	_, err := s.TopKBatch(ctx, []*tree.Tree{q}, k, opts...)
	return nil, err
}

func (s *slowSearcher) TopKBatch(ctx context.Context, qs []*tree.Tree, k int, opts ...corpus.QueryOption) ([][]corpus.Match, error) {
	select {
	case <-s.started:
	default:
		close(s.started)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (s *slowSearcher) Docs(context.Context) ([]corpus.DocInfo, error) { return nil, nil }
func (s *slowSearcher) NumDocs() (int, bool)                           { return 0, true }
func (s *slowSearcher) Generation() uint64                             { return 0 }

// TestGracefulShutdownCancelsSlowQuery: a SIGTERM-equivalent (context
// cancellation) while a slow query is in flight must (1) stop accepting
// new connections, (2) give the query the drain window, (3) cancel the
// query's context when the window passes, and (4) return from serve —
// promptly, not after the query would have finished on its own (it never
// would here).
func TestGracefulShutdownCancelsSlowQuery(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowSearcher{started: make(chan struct{})}
	ctx, trigger := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, l, newServer(slow, nil, serverConfig{}), 200*time.Millisecond)
	}()

	// Fire the slow query.
	queryDone := make(chan string, 1)
	go func() {
		resp, err := http.Post("http://"+l.Addr().String()+"/v1/topk", "application/json",
			strings.NewReader(`{"query":"{a}","k":1}`))
		if err != nil {
			queryDone <- fmt.Sprintf("transport error: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		queryDone <- fmt.Sprintf("%d %s", resp.StatusCode, body)
	}()
	<-slow.started // the handler reached the backend and is blocking

	trigger() // SIGINT/SIGTERM arrives
	select {
	case res := <-queryDone:
		// The drain window passed, the request context was cancelled, and
		// the in-flight query must have been answered 503 (or had its
		// connection torn down by Close — either way it returned).
		if strings.HasPrefix(res, "503") && !strings.Contains(res, "cancelled") {
			t.Errorf("unexpected 503 body: %s", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query still blocked 5s after shutdown; ctx cancellation did not reach the scan")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return within 5s of shutdown")
	}

	// New connections are refused after shutdown.
	if _, err := http.Get("http://" + l.Addr().String() + "/healthz"); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}

// TestGracefulShutdownDrainsFastQueries: a query that completes within
// the drain window is answered normally, and serve exits cleanly.
func TestGracefulShutdownDrainsFastQueries(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddXML("d", strings.NewReader(`<r><a><b>x</b></a></r>`)); err != nil {
		t.Fatal(err)
	}
	ctx, trigger := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, l, newServer(c, c, serverConfig{}), 5*time.Second)
	}()
	resp, err := http.Post("http://"+l.Addr().String()+"/v1/topk", "application/json",
		strings.NewReader(`{"query":"{a{b{x}}}","k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var tr shard.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Matches) != 1 || tr.Matches[0].Dist != 0 {
		t.Fatalf("unexpected answer before shutdown: %+v", tr)
	}
	trigger()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain with no in-flight work")
	}
}

// TestGracefulShutdownSpareConnection: a connection that has not sent a
// request yet — the spare a client's connection pool dials when two
// requests race for one connection — must not hold up shutdown. net/http
// counts such a connection as busy until it is 5 s old, so without
// closing it serve would return after 5 s instead of at once.
func TestGracefulShutdownSpareConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, trigger := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ctx, l, newServer(c, c, serverConfig{}), 15*time.Second)
	}()
	spare, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	// The server accepts connections in order, so once a request on a
	// later connection is answered, the spare one has been accepted.
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	start := time.Now()
	trigger()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return within 2s: a connection with no request held up shutdown")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shutdown took %v with only a spare and an idle connection open", d)
	}
	spare.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := spare.Read(make([]byte, 1)); err == nil {
		t.Errorf("spare connection still open after shutdown (read %d bytes)", n)
	}
}
