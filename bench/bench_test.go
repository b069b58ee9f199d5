package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
	}{
		{10000, 99.9, 99.9}, // exactly ten beyond p99.9
		{9999, 99.9, 99},
		{1200, 99, 99},
		{1000, 99, 99}, // exactly ten beyond p99
		{999, 99, 98},
		{500, 99, 98},
		{499, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 99, 90},
		{40, 99, 75},
		{39, 99, 50},
		{5000, 95, 95}, // never above what was asked for
	} {
		if got := supportedTail(c.n, c.want); got != c.p {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, which is what the driver
// computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
}

// TestOpenLoopCountsTheStall is the coordinated-omission check: a server
// that stalls once must show the stall in the latency of every request
// that was due while it lasted, not only in the one request that hit it.
func TestOpenLoopCountsTheStall(t *testing.T) {
	const (
		stall  = 300 * time.Millisecond
		rate   = 200.0
		window = 600 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"matches":[],"stats":{}}`))
	}))
	defer srv.Close()
	tgt := &target{
		client: newHTTPClient(1),
		url:    srv.URL,
		pool:   []request{{body: []byte(`{}`)}},
		want:   []string{"|"},
		seq:    []int32{0},
	}
	samples := tgt.openLoop(context.Background(), 1, window, rate)
	if want := int(rate * window.Seconds()); len(samples) != want {
		t.Fatalf("open loop sent %d requests, want %d: it must not skip requests it is late for", len(samples), want)
	}
	delayed, worst := 0, time.Duration(0)
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("request failed")
		}
		if s.lat > stall/2 {
			delayed++
			if s.late <= 0 {
				t.Errorf("a request %v behind its due time reports late %v", s.lat, s.late)
			}
		}
		worst = max(worst, s.lat)
	}
	if worst < stall {
		t.Errorf("worst latency %v is below the %v stall", worst, stall)
	}
	// Requests due in the second half of the stall wait at least half of it.
	if want := int(rate * stall.Seconds() / 2 * 0.8); delayed < want {
		t.Errorf("%d requests show the stall, want at least %d: latency must run from the due time", delayed, want)
	}
}

func TestSeedDeterminism(t *testing.T) {
	w, err := workloadByName("router-hot")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := buildSequence(w, 7), buildSequence(w, 7), buildSequence(w, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the Zipf sequence differs between two runs of one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("the Zipf sequence ignores the seed")
	}
	for _, i := range a {
		if i < 0 || int(i) >= w.pool {
			t.Fatalf("Zipf index %d outside the pool of %d", i, w.pool)
		}
	}

	q := workloads[2].quick() // leaf-batch: exercises the multi-query path
	pool := func(seed int64) []request {
		docs, err := q.docs(seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildPool(&q, docs, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2, p3 := pool(3), pool(3), pool(4)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("the query pool differs between two runs of one seed")
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("the query pool ignores the seed")
	}
	seen := map[string]bool{}
	for _, r := range p1 {
		if len(r.queries) != q.batch {
			t.Fatalf("request carries %d queries, want %d", len(r.queries), q.batch)
		}
		if seen[string(r.body)] {
			t.Fatalf("request %s occurs twice in the pool", r.body)
		}
		seen[string(r.body)] = true
	}
}

func TestVerdict(t *testing.T) {
	s := func(median, spread float64) series { return series{Median: median, Spread: spread} }
	for _, c := range []struct {
		a, b   series
		higher bool
		want   string
	}{
		{s(10, 0.01), s(10.5, 0.01), false, "unchanged"},
		{s(10, 0.01), s(12, 0.01), false, "regressed"},
		{s(10, 0.01), s(8, 0.01), false, "improved"},
		{s(10, 0.01), s(12, 0.01), true, "improved"},
		{s(10, 0.01), s(8, 0.01), true, "regressed"},
		{s(10, 0.2), s(8, 0.01), false, "unresolved-spread-exceeds-bound"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%g→%g, higher=%v) = %s, want %s", c.a.Median, c.b.Median, c.higher, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesVocabulary keeps BENCHMARK.json and the names
// the harness prints in step: same workloads, same metrics, same units,
// same direction, and every bound inside the contract's cap.
func TestBenchmarkFileMatchesVocabulary(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, the harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, the harness %+v", i, m, d)
		}
	}
}

// TestQuickSmoke starts real tasmd processes on loopback and runs every
// workload for about a second: untraced for all, traced for a leaf and
// for the router. Each result must be correct, carry every declared
// metric with its unit, and survive the result-line round trip.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tasmd processes")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	check := func(w workload, trace bool, defs []metricDef) {
		res, err := runWorkload(context.Background(), e, w, runConfig{seed: 1, seconds: 0.5, trace: trace, quick: true})
		if err != nil {
			t.Fatalf("%s (trace %v): %v", w.name, trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s (trace %v): correct %v, attempted %d, failed %d, notes %v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool            `json:"correct"`
			Attempted *int             `json:"attempted"`
			Failed    *int             `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
			t.Fatalf("%s (trace %v): result line %s lacks a key or carries %d metrics, want %d", w.name, trace, data, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := line.Metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s (trace %v): metric %s = %+v (present %v), want a finite number in %s", w.name, trace, d.name, v, ok, d.unit)
			}
		}
	}
	for _, w := range workloads {
		check(w, false, endToEnd)
	}
	check(workloads[0], true, perLayer)
	check(workloads[len(workloads)-1], true, perLayer)
}
