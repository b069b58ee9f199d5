package main

// The metric vocabulary: every name the benchmark prints, with its unit.
// BENCHMARK.json at the repository root declares the same names; a test
// keeps the two in step.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one metric.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
}

// endToEnd are the metrics a user of tasmd would see, measured with
// tracing off; every timing is the median over the run's rounds. Three
// candidates of the issue are not among them. failed_frac is 0 at seed,
// and a relative bound on 0 means nothing; the result line's attempted
// and failed carry it. The p99s of the serial and open phases move by a
// quarter or more between runs of one commit on a two-core box (see
// README.md), so they are printed as loadgen.* diagnostics and the tail
// the benchmark gates on is lat_p95_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"lat_p50_ms", "ms", false},
	{"lat_p95_ms", "ms", false},
	{"throughput_rps", "1/s", true},
	{"load_p50_ms", "ms", false},
	{"cpu_ms_per_req", "ms", false},
	{"rss_peak_mb", "MB", false},
}

// diagnostics are printed as text next to either vocabulary and are in
// neither: the unsteady tails, pooled over the rounds.
var diagnostics = []metricDef{
	{"loadgen.lat_p99_ms", "ms", false},
	{"loadgen.load_p99_ms", "ms", false},
}

// perLayer are the metrics of single layers, reported by a -trace 1 run.
// The prefix is the module the number belongs to.
var perLayer = []metricDef{
	// From HTTP responses and /proc during the untraced phases.
	{"tasmd.cache_hit_ratio", "ratio", true},
	{"tasmd.hit_p50_ms", "ms", false},
	{"tasmd.miss_p50_ms", "ms", false},
	{"tasmd.miss_p99_ms", "ms", false},
	{"tasmd.resp_bytes_p50", "B", false},
	{"tasmd.ingest_p50_ms", "ms", false},
	{"tasmd.ingest_mb_s", "MB/s", true},
	{"tasmd.restart_ms", "ms", false},
	{"tasmd.write_p50_ms", "ms", false},
	{"loadgen.late_p99_ms", "ms", false},
	{"loadgen.achieved_rps", "1/s", true},
	{"loadgen.cpu_frac", "ratio", false},
	// From the ?trace=1 pass over the first tracedN pool entries.
	{"tree.parse_us", "us", false},
	{"corpus.plan_us", "us", false},
	{"corpus.scan_us", "us", false},
	{"corpus.merge_us", "us", false},
	{"shard.leg_max_us", "us", false},
	{"shard.fanout_overhead_us", "us", false},
	{"tasmd.untraced_gap_us", "us", false},
	{"qtrace.overhead_frac", "ratio", false},
	{"corpus.docs_scanned_per_q", "count", false},
	{"corpus.docs_skipped_per_q", "count", true},
	{"prb.hist_skipped_per_q", "count", true},
	{"ted.aborted_per_q", "count", false},
	{"ted.evaluated_per_q", "count", false},
	{"core.useful_eval_ratio", "ratio", true},
	{"dict.overlay_labels_per_q", "count", false},
	// From the in-process pass over the same directories.
	{"core.candidates_per_q", "count", false},
	{"xmlstream.parse_mb_s", "MB/s", true},
	{"pqgram.profile_ms_per_doc", "ms", false},
	{"pqgram.distance_ns", "ns", false},
	{"corpus.open_ms", "ms", false},
	{"mmapio.mapped_mb", "MB", false},
	{"docstore.drain_ns_per_node", "ns", false},
	{"prb.next_ns_per_node", "ns", false},
	{"prb.hist_bound_ns", "ns", false},
	{"tree.view_fill_ns", "ns", false},
	{"ted.bounded_us", "us", false},
	{"ranking.push_ns", "ns", false},
	{"core.scan_ms_per_q", "ms", false},
	{"core.scan_floor_frac", "ratio", false},
	{"core.scan_other_ms", "ms", false},
	{"corpus.topk_ms", "ms", false},
	{"corpus.topk_batch_ms", "ms", false},
	{"corpus.batch_amortisation", "ratio", false},
	{"shard.group_overhead_us", "us", false},
	{"shard.client_hop_us", "us", false},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract's result object plus
// what a human wants next to it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// Not part of the result line.
	notes   []string         // why correct is false, unsupported percentiles, …
	samples map[string]int   // sample count behind a metric, where it has one
	extra   map[string]value // diagnostics outside the declared vocabulary
	table   []string         // the layer table of a traced run
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]value{}, samples: map[string]int{}, extra: map[string]value{}}
}

// unitOf returns the unit defs declares for name, "" when it declares
// none.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// set records a declared metric.
func (r *result) set(defs []metricDef, name string, v float64) {
	unit := unitOf(defs, name)
	if unit == "" {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = value{v, unit}
}

// diagnose records a number that is printed as text only: a per-layer
// metric seen from an untraced run, or one of diagnostics.
func (r *result) diagnose(name string, v float64) {
	unit := unitOf(perLayer, name)
	if unit == "" {
		unit = unitOf(diagnostics, name)
	}
	r.extra[name] = value{v, unit}
}

// fail marks the run incorrect and records why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete reports the declared metrics the result lacks.
func (r *result) complete(defs []metricDef) error {
	var missing []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("bench: result lacks %s", strings.Join(missing, ", "))
	}
	return nil
}

// printText writes the result for a human: one metric per line with its
// unit and sample count, then the diagnostics, notes and layer table.
func (r *result) printText(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.4f %-6s", d.name, v.Value, v.Unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	names := make([]string, 0, len(r.extra))
	for name := range r.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s (diagnostic)\n", name, r.extra[name].Value, r.extra[name].Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, failed_frac %.6f, correct %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, l := range r.table {
		fmt.Fprintln(w, l)
	}
}

// resultLine writes the contract's result object on one line.
func (r *result) resultLine(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
