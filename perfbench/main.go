// Command perfbench is the repository's benchmark. It runs one named
// workload over inputs generated from a seed, checks every output against a
// reference computed independently in set-up, and prints its metrics by
// name with their units. The last line of standard output is one JSON
// object: the end-to-end metrics, or with -trace 1 the per-layer metrics
// taken from spans the benchmark records around each module's public calls.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload reproduce|analyze|reanalyze|stream \
//	    --seed N --seconds S --trace 0|1
//
// The exit status is 0 only when every output matched its reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *tracer) (*outcome, error){
	"reproduce": runBatch,
	"analyze":   runBatch,
	"reanalyze": runBatch,
	"stream":    runStream,
}

// layerMetric is one per-layer metric: a span's median seconds when its
// name is a span name plus "_s", otherwise the median of its noted samples.
type layerMetric struct {
	name, unit string
	// all marks the metrics every workload's traced run produces; those
	// are the JSON per-layer metrics. The rest print only where they exist.
	all bool
}

var layerMetrics = []layerMetric{
	{"workload.generate_s", "s", true},
	{"workload.jobs", "count", true},
	{"slurmsim.schedule_s", "s", true},
	{"slurmsim.schedule_alloc_mb", "MiB", true},
	{"slurmsim.submitted", "count", true},
	{"slurmsim.started_frac", "ratio", true},
	{"simclock.steps", "count", true},
	{"simclock.steps_per_s", "1/s", true},
	{"cluster.devices_s", "s", true},
	{"cluster.events", "count", true},
	{"cluster.run_s", "s", true},
	{"cluster.run_alloc_mb", "MiB", true},
	{"syslog.emit_s", "s", true},
	{"syslog.lines", "count", true},
	{"syslog.bytes", "bytes", true},
	{"syslog.extract_s", "s", false},
	{"syslog.extract_wait_s", "s", false},
	{"syslog.extract_mb_per_s", "MiB/s", false},
	{"syslog.xid_lines", "count", false},
	{"ingest.extract_s", "s", false},
	{"ingest.extract_alloc_mb", "MiB", false},
	{"ingest.shards", "count", false},
	{"ingest.cache_hit_frac", "ratio", false},
	{"ingest.cache_invalidated", "count", false},
	{"ingest.cold_s", "s", false},
	{"slurmsim.loaddb_s", "s", false},
	{"slurmsim.loaddb_mb_per_s", "MiB/s", false},
	{"slurmsim.rows", "count", false},
	{"slurmsim.loaddb_alloc_mb", "MiB", false},
	{"core.loaders_s", "s", false},
	{"core.analyze_s", "s", true},
	{"coalesce.events_s", "s", true},
	{"coalesce.kept_frac", "ratio", true},
	{"impact.correlate_s", "s", true},
	{"impact.table3_s", "s", true},
	{"avail.analyze_s", "s", true},
	{"report.render_s", "s", true},
	{"report.bytes", "bytes", true},
	{"stream.consume_s", "s", false},
	{"stream.advance_s", "s", false},
	{"stream.snapshot_s", "s", false},
	{"stream.snapshots", "count", false},
	{"stream.late", "count", false},
	{"stream.open_state_max", "count", false},
	{"runtime.gc_cycles", "count", true},
	{"runtime.gc_pause_ms", "ms", true},
}

// value reads the metric from a traced run.
func (m layerMetric) value(tr *tracer) (float64, bool) {
	if base, ok := strings.CutSuffix(m.name, "_s"); ok {
		if d := tr.durations(base); len(d) > 0 {
			return median(d), true
		}
	}
	return tr.noted(m.name)
}

// options is one benchmark run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // scratch space for datasets and caches, removed at exit
	traceDir string // where traced runs write their spans
	setups   int    // set-ups per run; setup_s is their median
	// scale multiplies every workload's input scale; tests shrink it.
	scale float64
	// corruptReference alters the reference so every output mismatches;
	// tests use it to prove the check bites.
	corruptReference bool
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is a finished run. An operation is a batch iteration, or a line
// offered to the stream daemon.
type outcome struct {
	attempted, failed int
	e2e               []metric
	extra             []metric  // printed, not part of the JSON
	samples           []float64 // every untimed-mode iteration's wall seconds
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: reproduce, analyze, reanalyze or stream")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 15, "seconds to measure")
		trace   = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload reproduce|analyze|reanalyze|stream, -seconds > 0, -trace 0|1\n")
		return 2
	}
	build := ".bench_build"
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid())),
		traceDir: filepath.Join(build, "traces"),
		setups:   3,
		scale:    1,
	}
	return execute(o, stdout)
}

// execute runs one workload and prints its report; the return value is the
// exit status.
func execute(o options, stdout io.Writer) int {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := workloads[o.workload](o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "env commit=%s nproc=%d gomaxprocs=%d go=%s\n",
		commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	failFrac := metric{"fail_frac", float64(out.failed) / float64(out.attempted), "ratio",
		fmt.Sprintf("%d of %d operations failed", out.failed, out.attempted)}
	for _, m := range append(append(out.e2e, out.extra...), failFrac) {
		fmt.Fprintf(stdout, "metric %-22s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if len(out.samples) > 0 {
		fmt.Fprintf(stdout, "samples wall_s %.4f\n", out.samples)
	}
	metrics := make(map[string]any)
	if !o.trace {
		for _, m := range out.e2e {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	} else {
		for _, s := range tr.summarize() {
			fmt.Fprintf(stdout, "span %-22s n=%-4d p50=%.6fs self_p50=%.6fs\n", s.Name, s.N, s.P50, s.SelfP50)
		}
		// The isolated simulator layers should account for a full run.
		sum := tr.p50("workload.generate") + tr.p50("slurmsim.schedule") + tr.p50("cluster.devices") + tr.p50("syslog.emit")
		fmt.Fprintf(stdout, "check simulator layers %.6fs of cluster.run %.6fs (ratio %.3f)\n",
			sum, tr.p50("cluster.run"), sum/tr.p50("cluster.run"))
		for _, m := range layerMetrics {
			v, ok := m.value(tr)
			if ok {
				fmt.Fprintf(stdout, "layer %-26s %14.6g %s\n", m.name, v, m.unit)
			}
			if !m.all {
				continue
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s was not measured\n", m.name)
				return 1
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
		err = os.MkdirAll(o.traceDir, 0o755)
		if err == nil {
			err = tr.write(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}
