package main

// One run of one workload: set-up (several times, for a steady setup_s),
// oracle, warm-up, then the measured time in rounds — each round a serial
// closed loop, a saturating closed loop and an open loop at the workload's
// fixed rate. A traced run spends half its time on the same rounds with
// tracing off and the rest on the ?trace=1 pass and the in-process layer
// pass.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is what the command line chooses for a run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
}

const (
	// setups is how many times an untraced run sets up; setup_s is their
	// median.
	setups = 3
	// rounds is how many times the three phases alternate. Every
	// end-to-end timing is computed per round and reported as the median
	// over the rounds, so a disturbance of the machine that lasts a second
	// or two moves a minority of the rounds and not the reported number.
	rounds = 5
	// Each round's time is split 7:4:5 between the phases.
	serialShare   = 7.0 / 16
	saturateShare = 4.0 / 16
	openShare     = 5.0 / 16
	// tailPercentile is the tail the end-to-end metrics quote. One round's
	// serial phase on the slowest workload has about 240 samples, a dozen
	// beyond p95; the reported median over the rounds rests on all of them.
	tailPercentile = 95
	// warmupTime is discarded before measuring.
	warmupTime = time.Second
	// churnPeriod is the churn writer's pace: one ingest or one remove per
	// period.
	churnPeriod = time.Second
)

func median(sorted []float64) float64 { return percentile(sorted, 50) }

// medianOf sorts v and returns its median.
func medianOf(v []float64) float64 {
	sort.Float64s(v)
	return median(v)
}

// round is what one round of the three phases measured.
type round struct {
	serial, saturate, open  []sample
	satElapsed, openElapsed time.Duration
	tasmdCPU, genCPU        float64 // CPU seconds consumed during the round
}

func (r *round) requests() int { return len(r.serial) + len(r.saturate) + len(r.open) }

// runWorkload runs w once and returns its result. A returned error means
// the benchmark itself could not run; a program that answers wrongly
// yields a result with Correct false instead.
func runWorkload(ctx context.Context, e *env, w workload, cfg runConfig) (*result, error) {
	if cfg.quick {
		w = w.quick()
	}
	res := newResult()
	nproc := runtime.GOMAXPROCS(0)

	n := setups
	if cfg.trace || cfg.quick {
		n = 1
	}
	var (
		topo   *topology
		st     *setupStats
		setupS []float64
	)
	for i := 0; i < n; i++ {
		if topo != nil {
			if err := topo.stop(); err != nil {
				return nil, err
			}
			for _, dir := range topo.dirs {
				os.RemoveAll(dir)
			}
		}
		var err error
		if topo, st, err = setUp(e, &w, cfg.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, st.seconds)
	}
	defer topo.stop() // error paths only; the success path stops explicitly and checks

	pool, err := buildPool(&w, st.docs, cfg.seed)
	if err != nil {
		return nil, err
	}
	orc, err := openOracle(topo.dirs)
	if err != nil {
		return nil, err
	}
	want, err := orc.answers(pool, w.k)
	if err != nil {
		return nil, err
	}
	if w.churn {
		if err := checkNaive(st.docs, pool, want, w.k); err != nil {
			return nil, err
		}
	}

	tgt := &target{
		client: newHTTPClient(nproc),
		url:    topo.front.url + w.path(),
		pool:   pool,
		want:   want,
		seq:    buildSequence(&w, cfg.seed),
	}
	defer tgt.client.CloseIdleConnections()

	measured := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measured /= 2
	}
	warm := warmupTime
	if cfg.quick {
		warm = measured / 8
	}
	tgt.closedLoop(ctx, 1, warm, 0)
	if w.warmup > 0 {
		tgt.closedLoop(ctx, nproc, 30*time.Second, w.warmup)
	}

	var churn *churnWriter
	if w.churn {
		churn = startChurn(ctx, topo.front.url)
	}
	slice := func(share float64) time.Duration { return time.Duration(float64(measured) * share / rounds) }
	rs := make([]round, rounds)
	for i := range rs {
		r := &rs[i]
		cpu0, err := topo.cpu()
		if err != nil {
			return nil, err
		}
		gen0 := selfCPU()
		r.serial = tgt.closedLoop(ctx, 1, slice(serialShare), 0)
		start := time.Now()
		r.saturate = tgt.closedLoop(ctx, nproc, slice(saturateShare), 0)
		r.satElapsed = time.Since(start)
		start = time.Now()
		r.open = tgt.openLoop(ctx, nproc, slice(openShare), w.rateRPS)
		r.openElapsed = time.Since(start)
		cpu1, err := topo.cpu()
		if err != nil {
			return nil, err
		}
		r.tasmdCPU, r.genCPU = cpu1-cpu0, selfCPU()-gen0
		if len(r.serial) == 0 || len(r.saturate) == 0 || len(r.open) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%s: a phase of round %d completed no request (serial %d, saturate %d, open %d)",
				w.name, i, len(r.serial), len(r.saturate), len(r.open))
		}
	}
	var writes []sample
	if churn != nil {
		writes = churn.stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var serial, open, all []sample
	var tasmdCPU, genCPU, openSeconds float64
	for i := range rs {
		serial = append(serial, rs[i].serial...)
		open = append(open, rs[i].open...)
		all = append(append(append(all, rs[i].serial...), rs[i].saturate...), rs[i].open...)
		tasmdCPU += rs[i].tasmdCPU
		genCPU += rs[i].genCPU
		openSeconds += rs[i].openElapsed.Seconds()
	}
	res.Attempted = len(all) + len(writes)
	res.Failed = countFailed(all) + countFailed(writes)
	if res.Failed > 0 {
		res.fail("%d of %d requests failed or answered differently from the oracle", res.Failed, res.Attempted)
	}
	cached := 0
	for i := range all {
		if all[i].cached {
			cached++
		}
	}
	hitRatio := float64(cached) / float64(len(all))
	if hitRatio < w.hitRatio[0] || hitRatio > w.hitRatio[1] {
		res.fail("cache hit ratio %.3f outside the workload's [%g, %g]: the percentiles describe another population",
			hitRatio, w.hitRatio[0], w.hitRatio[1])
	}

	// Pooled over the rounds: the tails no single round has the samples
	// for, and how the generator itself did.
	serialMs, openMs := latenciesMs(serial, nil), latenciesMs(open, nil)
	lateMs := make([]float64, len(open))
	for i := range open {
		lateMs[i] = float64(open[i].late) / float64(time.Millisecond)
	}
	sort.Float64s(lateMs)
	diag := map[string]float64{
		"tasmd.cache_hit_ratio": hitRatio,
		"loadgen.lat_p99_ms":    percentile(serialMs, supportedTail(len(serialMs), 99)),
		"loadgen.load_p99_ms":   percentile(openMs, supportedTail(len(openMs), 99)),
		"loadgen.late_p99_ms":   percentile(lateMs, supportedTail(len(lateMs), 99)),
		"loadgen.achieved_rps":  float64(len(open)-countFailed(open)) / openSeconds,
		"loadgen.cpu_frac":      genCPU / (genCPU + tasmdCPU),
	}

	if !cfg.trace {
		rss, err := topo.peakRSS()
		if err != nil {
			return nil, err
		}
		if err := topo.stop(); err != nil {
			return nil, err
		}
		// perRound reports the median over the rounds of f.
		perRound := func(f func(*round) float64) float64 {
			v := make([]float64, len(rs))
			for i := range rs {
				v[i] = f(&rs[i])
			}
			return medianOf(v)
		}
		res.set(endToEnd, "setup_s", medianOf(setupS))
		res.set(endToEnd, "lat_p50_ms", perRound(func(r *round) float64 { return median(latenciesMs(r.serial, nil)) }))
		res.set(endToEnd, "lat_p95_ms", perRound(func(r *round) float64 { return percentile(latenciesMs(r.serial, nil), tailPercentile) }))
		res.set(endToEnd, "throughput_rps", perRound(func(r *round) float64 {
			return float64(len(r.saturate)-countFailed(r.saturate)) / r.satElapsed.Seconds()
		}))
		res.set(endToEnd, "load_p50_ms", perRound(func(r *round) float64 { return median(latenciesMs(r.open, nil)) }))
		res.set(endToEnd, "cpu_ms_per_req", perRound(func(r *round) float64 { return r.tasmdCPU * 1000 / float64(r.requests()) }))
		res.set(endToEnd, "rss_peak_mb", rss)
		res.samples["setup_s"] = len(setupS)
		res.samples["lat_p50_ms"], res.samples["lat_p95_ms"] = len(serial), len(serial)
		res.samples["throughput_rps"] = len(all) - len(serial) - len(open)
		res.samples["load_p50_ms"] = len(open)
		res.samples["cpu_ms_per_req"] = len(all)
		if supportedTail(len(serial), tailPercentile) != tailPercentile && !cfg.quick {
			res.notes = append(res.notes, fmt.Sprintf("lat_p95_ms rests on %d serial samples, fewer than ten beyond p95", len(serial)))
		}
		for name, v := range diag {
			res.diagnose(name, v)
		}
		return res, res.complete(endToEnd)
	}

	// Traced run: the rest of the per-layer vocabulary.
	for name, v := range diag {
		if unitOf(perLayer, name) != "" {
			res.set(perLayer, name, v)
		} else {
			res.diagnose(name, v)
		}
	}
	hitMs := latenciesMs(serial, func(s *sample) bool { return s.cached })
	missMs := latenciesMs(serial, func(s *sample) bool { return !s.cached })
	sizes := make([]float64, len(all))
	for i := range all {
		sizes[i] = float64(all[i].bytes)
	}
	res.set(perLayer, "tasmd.hit_p50_ms", median(hitMs))
	res.set(perLayer, "tasmd.miss_p50_ms", median(missMs))
	res.set(perLayer, "tasmd.miss_p99_ms", percentile(missMs, supportedTail(len(missMs), 99)))
	res.set(perLayer, "tasmd.resp_bytes_p50", medianOf(sizes))
	res.set(perLayer, "tasmd.ingest_p50_ms", median(st.ingestMs))
	res.set(perLayer, "tasmd.ingest_mb_s", st.ingestMBs)
	res.set(perLayer, "tasmd.restart_ms", st.restartMs)
	res.set(perLayer, "tasmd.write_p50_ms", median(latenciesMs(writes, nil)))
	res.samples["tasmd.hit_p50_ms"], res.samples["tasmd.miss_p50_ms"] = len(hitMs), len(missMs)
	res.samples["tasmd.write_p50_ms"] = len(writes)

	tr := newTracer(w.name)
	if err := tracedPass(ctx, tgt, &w, serial, tr, res); err != nil {
		return nil, err
	}
	if err := clientHop(ctx, topo.leaves[0].url, &w, pool, tr, res); err != nil {
		return nil, err
	}
	if err := topo.stop(); err != nil {
		return nil, err
	}
	if err := layerPass(topo.dirs, &w, st.docs, pool, median(serialMs), tr, res); err != nil {
		return nil, err
	}
	if !cfg.quick {
		if err := tr.write(e.root); err != nil {
			return nil, err
		}
	}
	return res, res.complete(perLayer)
}

// churnWriter alternately ingests and removes one small document beside
// the readers.
type churnWriter struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ops    []sample
}

func startChurn(ctx context.Context, url string) *churnWriter {
	ctx, cancel := context.WithCancel(ctx)
	c := &churnWriter{cancel: cancel}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		client := &http.Client{Timeout: requestTimeout}
		defer client.CloseIdleConnections()
		tick := time.NewTicker(churnPeriod)
		defer tick.Stop()
		present := false
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			t0 := time.Now()
			var err error
			if present {
				err = remove(client, url, "zzchurn")
			} else {
				err = ingest(client, url, "zzchurn", churnDoc)
			}
			c.ops = append(c.ops, sample{lat: time.Since(t0), ok: err == nil})
			if err == nil {
				present = !present
			}
		}
	}()
	return c
}

// stop ends the writer and returns its operations.
func (c *churnWriter) stop() []sample {
	c.cancel()
	c.wg.Wait()
	return c.ops
}
