// Command bench is the loopback load benchmark of tasmd: it builds the
// daemon from this repository's source, starts real processes on free
// loopback ports, ingests a seeded fixture over HTTP, checks every answer
// against an in-process oracle and measures five named workloads end to
// end and layer by layer. See README.md in this directory.
//
// Usage (from the repository root, as BENCHMARK.json runs it):
//
//	bash bench/run.sh --workload leaf-scan --seed 1 --seconds 18 --trace 0
//
// or, inside bench/:
//
//	go run . -workload leaf-scan                 # one run, end-to-end metrics
//	go run . -workload leaf-scan -trace 1        # per-layer metrics, layer table, span file
//	go run . -repeat 5 -json a.json              # every workload five times, statistics
//	go run . -compare a.json b.json              # verdict per workload × metric
//	go run . -quick                              # ~1 s smoke run of every workload
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "seed of the fixture, the query pool and the request order")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run: five rounds, each split 7:4:5 between the serial, saturate and open phases")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics, layer table, bench/out/trace-<workload>.json); 0: end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "run each workload this many times and print median, quartiles and spread per metric")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: run i uses seed+i instead of the same seed")
		quick    = flag.Bool("quick", false, "smoke run: tiny fixtures, one set-up, ~1 s per workload")
		jsonPath = flag.String("json", "", "write the report (every value of every metric) to this file")
		doCmp    = flag.Bool("compare", false, "compare two reports written by -json: bench -compare a.json b.json")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1, -repeat ≥ 1, -seconds > 0")
		return 2
	}
	if *doCmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		root, err := findRoot()
		if err == nil {
			err = compare(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []workload{*w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick}
	if cfg.quick && *seconds == defaultSeconds {
		cfg.seconds = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Children die and the scratch directory goes on every way out: normal
	// return, error, panic (deferred calls run while it unwinds) and, via
	// the context, SIGINT and SIGTERM.
	defer e.cleanup()
	go func() {
		<-ctx.Done()
		e.cleanup()
	}()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := newReport(cfg, *repeat)
	fmt.Printf("tasmd loopback benchmark: nproc %d, %s, commit %s, seed %d, %.0f s measured, trace %d\n",
		rep.NProc, runtime.Version(), rep.Commit, cfg.seed, cfg.seconds, *trace)
	var last *result
	for _, w := range selected {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			c := cfg
			if *varySeed {
				c.seed += int64(i)
			}
			res, err := runWorkload(ctx, e, w, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				return 1
			}
			fmt.Printf("%s (seed %d, rate_rps %g): %s\n", w.name, c.seed, w.rateRPS, w.why)
			res.printText(os.Stdout, defs)
			runs = append(runs, res)
			last = res
		}
		rep.add(w.name, defs, runs)
		if *repeat > 1 {
			rep.printSeries(os.Stdout, w.name, defs)
		}
	}
	if *jsonPath != "" {
		if err := rep.write(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// One run of one workload ends with the result object on the last
	// line, which is what BENCHMARK.json's driver reads.
	if len(selected) == 1 && *repeat == 1 {
		if err := last.resultLine(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
