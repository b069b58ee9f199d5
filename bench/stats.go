package main

// Statistics over repeated runs (-repeat) and the comparison of two
// recorded reports (-compare).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// series is one metric's values over the repeated runs of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 − Q1) ÷ median: the run-to-run noise as a share of the
	// value, the quantity a regression bound has to exceed.
	Spread float64 `json:"spread"`
}

// quartiles returns the first, second and third quartile of values by
// the method of Python's statistics.quantiles(values, n=4) (exclusive),
// which is what the driver applies to the benchmark's output.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

func newSeries(unit string, values []float64) series {
	q1, q2, q3 := quartiles(values)
	s := series{Unit: unit, Values: values, Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		s.Spread = (q3 - q1) / q2
	}
	return s
}

// report is what -json writes and -compare reads.
type report struct {
	GoVersion string             `json:"go_version"`
	Commit    string             `json:"commit"`
	NProc     int                `json:"nproc"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Repeat    int                `json:"repeat"`
	RateRPS   map[string]float64 `json:"rate_rps"`
	// Workloads maps workload → metric → series.
	Workloads map[string]map[string]series `json:"workloads"`
}

// commit returns the VCS revision the binary was built from, "unknown"
// outside a repository (the driver's checkout is not one).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newReport(cfg runConfig, repeat int) *report {
	r := &report{
		GoVersion: runtime.Version(), Commit: commit(), NProc: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Repeat: repeat,
		RateRPS: map[string]float64{}, Workloads: map[string]map[string]series{},
	}
	for _, w := range workloads {
		r.RateRPS[w.name] = w.rateRPS
	}
	return r
}

// add folds the runs of one workload into the report.
func (r *report) add(name string, defs []metricDef, runs []*result) {
	m := map[string]series{}
	for _, d := range defs {
		values := make([]float64, 0, len(runs))
		for _, run := range runs {
			if v, ok := run.Metrics[d.name]; ok {
				values = append(values, v.Value)
			}
		}
		if len(values) > 0 {
			m[d.name] = newSeries(d.unit, values)
		}
	}
	r.Workloads[name] = m
}

// printSeries writes the per-metric statistics of one workload.
func (r *report) printSeries(w io.Writer, name string, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d runs\n  %-28s %-6s %12s %12s %12s %8s\n", name, r.Repeat, "metric", "unit", "median", "q1", "q3", "spread")
	for _, d := range defs {
		s, ok := r.Workloads[name][d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-6s %12.4f %12.4f %12.4f %7.1f%%\n", d.name, s.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread)
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// verdict judges b against a for one metric: a relative change beyond the
// bound in the better direction is an improvement, in the worse direction
// a regression; either is only resolved when both sides' run-to-run
// spread is inside the bound.
func verdict(a, b series, higher bool, bound float64) (delta float64, v string) {
	if a.Median == 0 {
		return 0, "unresolved-zero-base"
	}
	delta = (b.Median - a.Median) / a.Median
	worse := delta
	if higher {
		worse = -delta
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return delta, "unresolved-spread-exceeds-bound"
	case worse > bound:
		return delta, "regressed"
	case worse < -bound:
		return delta, "improved"
	}
	return delta, "unchanged"
}

// compare prints, one row per workload × end-to-end metric, both medians,
// the delta and the verdict under BENCHMARK.json's bounds.
func compare(w io.Writer, root, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s, %d runs)  b: %s (commit %s, %d runs)\n", pathA, a.Commit, a.Repeat, pathB, b.Commit, b.Repeat)
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "delta", "bound", "verdict")
	for _, wl := range workloads {
		ma, mb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, okA := ma[m.Name]
			sb, okB := mb[m.Name]
			if !okA || !okB {
				continue
			}
			delta, v := verdict(sa, sb, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-20s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", wl.name, m.Name, sa.Median, sb.Median, 100*delta, 100*m.Bound, v)
		}
	}
	return nil
}
