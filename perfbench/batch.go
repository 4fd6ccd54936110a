package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// batch is one prepared batch workload: inputs on hand and the reference
// rendering its every iteration must reproduce byte for byte.
type batch interface {
	// lines is how many raw log lines one iteration analyses.
	lines() int
	// reference is the independently computed rendering.
	reference() []byte
	// run is one untraced iteration through the program's public entry
	// point, returning the rendered tables.
	run() ([]byte, error)
	// runTraced is the same iteration composed from the modules' public
	// calls in the same concurrency shape, with a span around each call.
	runTraced(tr *tracer, root int) ([]byte, error)
	// probes times single layers in isolation on the inputs of the last
	// traced iteration.
	probes(tr *tracer) error
	// close releases the workload's files.
	close()
}

// sink keeps results the compiler could otherwise discard.
var sink any

// newBatch returns the set-up function of a batch workload.
func newBatch(name string) func(o options, dir string, tr *tracer) (batch, error) {
	switch name {
	case "reproduce":
		return setupReproduce
	case "analyze":
		return func(o options, dir string, tr *tracer) (batch, error) { return setupAnalyze(o, dir, tr, false) }
	case "reanalyze":
		return func(o options, dir string, tr *tracer) (batch, error) { return setupAnalyze(o, dir, tr, true) }
	}
	return nil
}

// iterSample is what one timed iteration measured.
type iterSample struct {
	wall, cpu  float64 // seconds
	allocMB    float64
	gcCycles   float64
	gcPauseMS  float64
	mismatched bool
}

// measure runs fn once from a collected heap and records its cost. The
// comparison with the reference is part of the timed interval: a result
// counts only once verified.
func measure(fn func() ([]byte, error), ref []byte) iterSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	got, err := fn()
	ok := err == nil && bytes.Equal(got, ref)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: iteration:", err)
	} else if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: iteration output differs from the reference")
	}
	return iterSample{
		wall:       wall.Seconds(),
		cpu:        (c1 - c0).Seconds(),
		allocMB:    mb(m1.TotalAlloc - m0.TotalAlloc),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		gcPauseMS:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		mismatched: !ok,
	}
}

// runBatch sets the workload up, then iterates until the run's seconds are
// spent. Untraced, it reports the end-to-end metrics over every iteration.
// Traced, it alternates untraced and traced iterations, so the tracing
// overhead is measured on the same inputs within one run.
func runBatch(o options, tr *tracer) (*outcome, error) {
	setup := newBatch(o.workload)
	setupTimes, w, err := timedSetups(o, tr,
		func(dir string) (batch, error) { return setup(o, dir, tr) },
		func(w batch) { w.close() })
	if err != nil {
		return nil, err
	}
	defer w.close()
	out := &outcome{}
	ref := w.reference()
	if o.corruptReference {
		ref = append([]byte("corrupted "), ref...)
	}

	var plain, traced []iterSample
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds; i++ {
		plain = append(plain, measure(w.run, ref))
		if tr == nil {
			continue
		}
		tr.setIter(i)
		traced = append(traced, measure(func() ([]byte, error) {
			root := tr.start("iteration", -1)
			defer tr.end(root)
			return w.runTraced(tr, root)
		}, ref))
		if err := w.probes(tr); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	for _, s := range append(plain, traced...) {
		out.attempted++
		if s.mismatched {
			out.failed++
		}
	}

	col := func(ss []iterSample, f func(iterSample) float64) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return xs
	}
	out.samples = col(plain, func(s iterSample) float64 { return s.wall })
	wall := median(out.samples)
	n := fmt.Sprintf("median of %d iterations", len(plain))
	out.e2e = []metric{
		{"wall_p50_s", wall, "s", n},
		{"lines_per_s", float64(w.lines()) / wall, "1/s", fmt.Sprintf("%d raw lines per iteration", w.lines())},
		{"fresh_p50_ms", 1000 * wall, "ms", "batch: tables are as fresh as the run that renders them"},
		{"cpu_s", median(col(plain, func(s iterSample) float64 { return s.cpu })), "s", n},
		{"alloc_mb", median(col(plain, func(s iterSample) float64 { return s.allocMB })), "MiB", n},
		{"setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(setupTimes))},
	}
	if tr != nil {
		tr.note("runtime.gc_cycles", median(col(traced, func(s iterSample) float64 { return s.gcCycles })))
		tr.note("runtime.gc_pause_ms", median(col(traced, func(s iterSample) float64 { return s.gcPauseMS })))
		twall := median(col(traced, func(s iterSample) float64 { return s.wall }))
		out.extra = append(out.extra,
			metric{"trace.wall_p50_s", twall, "s", fmt.Sprintf("median of %d traced iterations", len(traced))},
			metric{"trace.overhead_s", twall - wall, "s", "traced minus untraced wall_p50_s"})
	}
	return out, nil
}

// timedSetups sets the workload up o.setups times (once when traced),
// releasing all but the last, so setup_s is a median rather than one sample.
// Each set-up gets its own directory under o.workDir.
func timedSetups[T any](o options, tr *tracer, setup func(dir string) (T, error), release func(T)) ([]float64, T, error) {
	n := o.setups
	if tr != nil {
		n = 1
	}
	var times []float64
	var w T
	for k := 0; k < n; k++ {
		if k > 0 {
			release(w)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(filepath.Join(o.workDir, fmt.Sprintf("setup%d", k))); err != nil {
			return nil, w, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, w, nil
}

// reproduce is the deltareport path: simulate, pipe raw lines into Stage I,
// run Stages II and III, render.
type reproduce struct {
	scale   float64
	seed    uint64
	nLines  int
	refText []byte
	last    analysisInputs // the last traced iteration's Stage II/III inputs
}

// setupReproduce computes the reference over an independent path: the
// simulation is written to memory, extracted sequentially, and analysed at
// one worker from the run's in-memory jobs, repairs and CPU record. It
// avoids jobs.db, whose second-resolution timestamps change the tables.
func setupReproduce(o options, _ string, tr *tracer) (batch, error) {
	w := &reproduce{scale: 0.05 * o.scale, seed: o.seed}
	sc := calib.NewScenario(w.seed, w.scale)
	var logs bytes.Buffer
	sim, err := simulate(tr, -1, sc.Cluster, &logs, true)
	if err != nil {
		return nil, err
	}
	events, st, err := core.ExtractEvents(&logs)
	if err != nil {
		return nil, err
	}
	res, err := core.Analyze(events, sim.res.Jobs, sim.repairs(), sim.res.CPU, pipelineConfig(1))
	if err != nil {
		return nil, err
	}
	res.Extract = st
	w.nLines = sim.lines
	w.refText, err = render(nil, -1, res)
	return w, err
}

func (w *reproduce) lines() int        { return w.nLines }
func (w *reproduce) reference() []byte { return w.refText }
func (w *reproduce) close()            {}

func (w *reproduce) run() ([]byte, error) {
	sc := calib.NewScenario(w.seed, w.scale)
	out, err := core.EndToEnd(core.EndToEndConfig{Cluster: sc.Cluster, Pipeline: pipelineConfig(0)})
	if err != nil {
		return nil, err
	}
	return render(nil, -1, out.Results)
}

// meteredReader counts the bytes read through it and the time spent in
// Read, which on a pipe is mostly time blocked on the writer.
type meteredReader struct {
	r    io.Reader
	wait time.Duration
	n    int64
}

func (r *meteredReader) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := r.r.Read(p)
	r.wait += time.Since(t)
	r.n += int64(n)
	return n, err
}

func (w *reproduce) runTraced(tr *tracer, root int) ([]byte, error) {
	sc := calib.NewScenario(w.seed, w.scale)
	pr, pw := io.Pipe()
	type stage1 struct {
		events []xid.Event
		st     syslog.ExtractStats
		err    error
	}
	done := make(chan stage1, 1)
	go func() {
		wr := &meteredReader{r: pr}
		t := time.Now()
		sp := tr.start("syslog.extract", root)
		var s stage1
		s.events, s.st, s.err = core.ExtractEventsParallel(wr, 0)
		tr.end(sp)
		if s.err != nil {
			_ = pr.CloseWithError(s.err)
		}
		busy := time.Since(t) - wr.wait
		tr.note("syslog.extract_wait_s", wr.wait.Seconds())
		tr.note("syslog.extract_mb_per_s", mb(uint64(wr.n))/busy.Seconds())
		tr.note("syslog.xid_lines", float64(s.st.XIDLines))
		done <- s
	}()
	sim, err := simulate(tr, root, sc.Cluster, pw, false)
	if err != nil {
		_ = pw.CloseWithError(err)
		<-done
		return nil, err
	}
	_ = pw.Close()
	ext := <-done
	if ext.err != nil {
		return nil, ext.err
	}
	res, err := analyze(tr, root, ext.events, sim.res.Jobs, sim.repairs(), sim.res.CPU, 0)
	if err != nil {
		return nil, err
	}
	res.Extract = ext.st
	w.last = analysisInputs{ext.events, sim.res.Jobs, sim.repairs(), sim.res.CPU, res}
	return render(tr, root, res)
}

func (w *reproduce) probes(tr *tracer) error {
	probes := tr.start("probes", -1)
	defer tr.end(probes)
	if err := simulatorProbes(tr, probes, calib.NewScenario(w.seed, w.scale).Cluster); err != nil {
		return err
	}
	return analysisProbes(tr, probes, w.last)
}

// logFiles is the analyze and reanalyze dataset: the files deltasim writes.
type logFiles struct {
	dir      string
	logs     []string // patterns handed to AnalyzeLogFiles
	cacheDir string   // "" runs without the event-shard cache
	cpu      workload.CPURecord
	nLines   int
	refText  []byte
	last     analysisInputs // the last traced iteration's Stage II/III inputs
}

// setupAnalyze writes the dataset at scale 0.1 (syslog.txt, jobs.db,
// repairs.log) and computes the reference with a single-reader
// core.AnalyzeLogs pass at one worker. With shards it also rotates the log
// into one file per day and fills the event-shard cache with one cold pass.
func setupAnalyze(o options, dir string, tr *tracer, shards bool) (batch, error) {
	scale := 0.1 * o.scale
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &logFiles{dir: dir}
	sc := calib.NewScenario(o.seed, scale)
	logPath := filepath.Join(dir, dataset.SyslogFile)
	sim, err := writeDataset(tr, sc, dir)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := simulatorProbes(tr, -1, sc.Cluster); err != nil {
			return nil, err
		}
	}
	w.cpu, w.nLines = sim.res.CPU, sim.lines
	w.logs = []string{logPath}

	logFile, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	jobFile, err := os.Open(filepath.Join(dir, dataset.JobsFile))
	if err != nil {
		return nil, err
	}
	defer jobFile.Close()
	repairs, err := readRepairs(dir)
	if err != nil {
		return nil, err
	}
	res, err := core.AnalyzeLogs(logFile, jobFile, repairs, w.cpu, pipelineConfig(1))
	if err != nil {
		return nil, err
	}
	if w.refText, err = render(nil, -1, res); err != nil {
		return nil, err
	}
	if !shards {
		return w, nil
	}

	shardDir := filepath.Join(dir, "days")
	n, err := rotateDaily(logPath, shardDir)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(logPath); err != nil {
		return nil, err
	}
	w.logs = []string{shardDir}
	w.cacheDir = filepath.Join(dir, "cache")
	plan, err := ingest.PlanFiles(w.logs)
	if err != nil {
		return nil, err
	}
	sp := tr.start("ingest.cold", -1)
	_, err = ingest.Extract(plan, ingest.Options{Cache: ingest.NewCache(w.cacheDir)})
	tr.end(sp)
	tr.note("ingest.shards", float64(n))
	return w, err
}

// writeDataset simulates sc into dir the way deltasim does.
func writeDataset(tr *tracer, sc calib.Scenario, dir string) (*simOutput, error) {
	logFile, err := os.Create(filepath.Join(dir, dataset.SyslogFile))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	sim, err := simulate(tr, -1, sc.Cluster, logFile, true)
	if err != nil {
		return nil, err
	}
	if err := logFile.Close(); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(dir, dataset.JobsFile), func(w io.Writer) error {
		return slurmsim.DumpDB(w, sim.res.Jobs)
	}); err != nil {
		return nil, err
	}
	return sim, writeFile(filepath.Join(dir, dataset.RepairsFile), func(w io.Writer) error {
		return cluster.WriteDowntimes(w, sim.res.Downtimes)
	})
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// readRepairs loads the dataset's repair log as downtime durations.
func readRepairs(dir string) ([]time.Duration, error) {
	f, err := os.Open(filepath.Join(dir, dataset.RepairsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	downs, err := cluster.ReadDowntimes(f)
	if err != nil {
		return nil, err
	}
	return cluster.Durations(downs), nil
}

// rotateDaily splits the log into one file per day of its timestamps, the
// way Delta consolidates syslog daily. A new file starts at the first line
// of a later day, so the files' concatenation in name order is the
// original log. It returns the number of files.
func rotateDaily(logPath, dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	files, day, from := 0, "", 0
	flush := func(to int) error {
		if to == from {
			return nil
		}
		files++
		return os.WriteFile(filepath.Join(dir, "syslog-"+day+".log"), data[from:to], 0o644)
	}
	for pos := 0; pos < len(data); {
		end := bytes.IndexByte(data[pos:], '\n')
		if end < 0 {
			end = len(data)
		} else {
			end += pos + 1
		}
		if d := string(data[pos:min(pos+10, end)]); d > day {
			if err := flush(pos); err != nil {
				return 0, err
			}
			day, from = d, pos
		}
		pos = end
	}
	return files, flush(len(data))
}

func (w *logFiles) lines() int        { return w.nLines }
func (w *logFiles) reference() []byte { return w.refText }
func (w *logFiles) close()            { _ = os.RemoveAll(w.dir) }

// open returns the job database and the repair intervals an iteration reads.
func (w *logFiles) open() (*os.File, []time.Duration, error) {
	repairs, err := readRepairs(w.dir)
	if err != nil {
		return nil, nil, err
	}
	jobFile, err := os.Open(filepath.Join(w.dir, dataset.JobsFile))
	return jobFile, repairs, err
}

func (w *logFiles) run() ([]byte, error) {
	jobFile, repairs, err := w.open()
	if err != nil {
		return nil, err
	}
	defer jobFile.Close()
	res, err := core.AnalyzeLogFiles(w.logs, jobFile, repairs, w.cpu, pipelineConfig(0),
		core.IngestConfig{CacheDir: w.cacheDir})
	if err != nil {
		return nil, err
	}
	if err := w.checkCache(nil, res.Shards); err != nil {
		return nil, err
	}
	return render(nil, -1, res)
}

// checkCache fails a cached run in which any shard missed the cache.
func (w *logFiles) checkCache(tr *tracer, shards []ingest.ShardInfo) error {
	if w.cacheDir == "" {
		return nil
	}
	hits, invalidated := 0, 0
	for _, s := range shards {
		switch s.Outcome {
		case ingest.CacheHit:
			hits++
		case ingest.CacheInvalidated:
			invalidated++
		}
	}
	tr.note("ingest.cache_hit_frac", float64(hits)/float64(max(len(shards), 1)))
	tr.note("ingest.cache_invalidated", float64(invalidated))
	if hits != len(shards) {
		return fmt.Errorf("%d of %d shards missed the warm cache", len(shards)-hits, len(shards))
	}
	return nil
}

func (w *logFiles) runTraced(tr *tracer, root int) ([]byte, error) {
	jobFile, repairs, err := w.open()
	if err != nil {
		return nil, err
	}
	defer jobFile.Close()
	cfg := pipelineConfig(0)
	opt := ingest.Options{Workers: cfg.Workers}
	if w.cacheDir != "" {
		opt.Cache = ingest.NewCache(w.cacheDir)
	}
	var (
		ext  *ingest.Result
		jobs []*slurmsim.Job
	)
	// The two loaders run concurrently, as AnalyzeLogFiles runs them.
	loaders := tr.start("core.loaders", root)
	loadFns := []func() error{
		func() error {
			sp := tr.start("ingest.extract", loaders)
			defer tr.end(sp)
			var err error
			ext, err = w.extract(opt)
			return err
		},
		func() error {
			cr := &meteredReader{r: jobFile}
			t := time.Now()
			sp := tr.start("slurmsim.loaddb", loaders)
			var err error
			jobs, err = slurmsim.LoadDB(cr)
			tr.end(sp)
			tr.note("slurmsim.loaddb_mb_per_s", mb(uint64(cr.n))/time.Since(t).Seconds())
			tr.note("slurmsim.rows", float64(len(jobs)))
			return err
		},
	}
	err = parallel.ForEach(len(loadFns), cfg.Workers, func(i int) error { return loadFns[i]() })
	tr.end(loaders)
	if err != nil {
		return nil, err
	}
	tr.note("ingest.shards", float64(len(ext.Shards)))
	if err := w.checkCache(tr, ext.Shards); err != nil {
		return nil, err
	}
	res, err := analyze(tr, root, ext.Events, jobs, repairs, w.cpu, 0)
	if err != nil {
		return nil, err
	}
	res.Extract, res.Shards = ext.Stats, ext.Shards
	w.last = analysisInputs{ext.Events, jobs, repairs, w.cpu, res}
	return render(tr, root, res)
}

// extract plans the log patterns and runs the sharded Stage I.
func (w *logFiles) extract(opt ingest.Options) (*ingest.Result, error) {
	plan, err := ingest.PlanFiles(w.logs)
	if err != nil {
		return nil, err
	}
	return ingest.Extract(plan, opt)
}

// probes also repeats each loader alone, because the heap counters are
// process-wide and the concurrent loaders' allocations cannot be told apart.
func (w *logFiles) probes(tr *tracer) error {
	probes := tr.start("probes", -1)
	defer tr.end(probes)
	opt := ingest.Options{}
	if w.cacheDir != "" {
		opt.Cache = ingest.NewCache(w.cacheDir)
	}
	heap0 := totalAlloc()
	if _, err := w.extract(opt); err != nil {
		return err
	}
	tr.note("ingest.extract_alloc_mb", mb(totalAlloc()-heap0))
	jobFile, _, err := w.open()
	if err != nil {
		return err
	}
	defer jobFile.Close()
	heap0 = totalAlloc()
	if sink, err = slurmsim.LoadDB(jobFile); err != nil {
		return err
	}
	tr.note("slurmsim.loaddb_alloc_mb", mb(totalAlloc()-heap0))
	return analysisProbes(tr, probes, w.last)
}
