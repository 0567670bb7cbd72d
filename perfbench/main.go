// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one named workload through the real serving
// stack — the netserve h2c/HTTP server on a loopback listener in front
// of serve.Engine, serve.MutableEngine or cluster.Engine — checks every
// answer it can against an exact sequential scan, and prints one JSON
// result line.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics (tracing
// off). With --trace 1 it carries the per-layer metrics: the same
// workload is run once plain and once with the engine's and server's
// obs.Observer set, plus benchmark-side timers around public calls
// into each layer. Human-readable detail goes to stderr; the last line
// of stdout is the JSON result.
//
// Exit status: 0 when every answer checked was exact, 1 on a mismatch
// or a setup error, 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"heap_mb", "MiB"},
	{"recovery_s", "s"},
}

// perLayer are the --trace 1 metrics, reported by every workload.
// Where a workload does not drive a layer under load, its times come
// from a short probe of that layer's public calls on the workload's own
// rows (see layers.go); counts of events the workload cannot cause
// (failovers on a single engine, compactions without writes) read 0.
var perLayer = []metricDef{
	{"netserve.decode_us", "us"},
	{"netserve.encode_us", "us"},
	{"netserve.wire_us", "us"},
	{"netserve.bytes_per_query", "bytes"},
	{"resilience.queue_wait_us", "us"},
	{"resilience.rejected_ratio", "ratio"},
	{"serve.search_us", "us"},
	{"serve.pipeline_us", "us"},
	{"serve.allocs_per_query", "count"},
	{"serve.alloc_bytes_per_query", "bytes"},
	{"route.plan_us", "us"},
	{"route.shards_visited", "count"},
	{"knn.shard_visit_us", "us"},
	{"knn.prune_ratio.pim", "ratio"},
	{"knn.prune_ratio.host", "ratio"},
	{"knn.prune_ratio.total", "ratio"},
	{"pim.queryall_us", "us"},
	{"pim.dots_per_query", "count"},
	{"pim.program_ms", "ms"},
	{"arch.modeled_us_per_query", "us"},
	{"arch.pim_buf_bytes_per_query", "bytes"},
	{"arch.host_bytes_per_query", "bytes"},
	{"vec.merge_us", "us"},
	{"delta.compactions", "count"},
	{"delta.compaction_ms", "ms"},
	{"delta.rows_mean", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.replay_ms", "ms"},
	{"standing.requeries_per_write", "ratio"},
	{"standing.dropped_events", "count"},
	{"cluster.search_us", "us"},
	{"cluster.failovers", "count"},
	{"cluster.noquorum", "count"},
	{"cluster.degraded_writes", "count"},
	{"cluster.ship_bytes", "bytes"},
	{"cluster.ship_modeled_ms", "ms"},
	{"cluster.repair_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.late_p99_ms", "ms"},
	{"bench.write_p50_ms", "ms"},
	{"bench.write_p99_ms", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects named metric values before they are checked against a
// definition list and rendered.
type values map[string]float64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := execute(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in the requested mode and assembles the
// report.
func execute(sp spec, seed int64, window time.Duration, traced bool, log io.Writer) (*report, error) {
	b, err := newBench(sp, seed, log)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	return b.run(window, traced)
}

// run measures the bench's workload and checks the result carries every
// metric of the mode.
func (b *bench) run(window time.Duration, traced bool) (*report, error) {
	defs, measure := endToEnd, b.plainRun
	if traced {
		defs, measure = perLayer, b.tracedRun
	}
	vals, err := measure(window)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   len(b.mismatches) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, m := range b.mismatches {
		fmt.Fprintln(b.log, "perfbench: INEXACT:", m)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", b.sp.name, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printTable(b.log, b.sp.name, traced, defs, vals)
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operations", b.sp.name)
	}
	return rep, nil
}

func printTable(w io.Writer, name string, traced bool, defs []metricDef, vals values) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s — %s\n", name, mode)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
