package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/impact"
	"gpuresilience/internal/report"
	"gpuresilience/internal/simclock"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// pipelineConfig is the paper's analysis configuration at a worker count:
// 0 (GOMAXPROCS, the CLI default) for measured runs, 1 for references.
func pipelineConfig(workers int) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	cfg.Workers = workers
	return cfg
}

// simOutput is one simulation and how many lines its syslog writer emitted.
type simOutput struct {
	res   *cluster.Result
	lines int
}

// repairs returns the run's node unavailability intervals.
func (s *simOutput) repairs() []time.Duration { return cluster.Durations(s.res.Downtimes) }

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// simulate runs cfg with a syslog writer into w, as deltasim and
// core.EndToEnd do. Traced, it records cluster.run around the whole run and
// syslog.emit as the time spent inside the event sink; isolated says no
// other goroutine allocates meanwhile, so the heap delta is the run's own.
func simulate(tr *tracer, parent int, cfg cluster.Config, w io.Writer, isolated bool) (*simOutput, error) {
	sim, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	cw := &countWriter{w: w}
	writer, err := syslog.NewWriter(cw, syslog.DefaultWriterConfig(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	var emit time.Duration
	sink := func(ev xid.Event) error {
		_, err := writer.WriteEvent(ev)
		return err
	}
	if tr != nil {
		sink = func(ev xid.Event) error {
			t := time.Now()
			_, err := writer.WriteEvent(ev)
			emit += time.Since(t)
			return err
		}
	}
	sim.SetEventSink(sink)
	var heap0 uint64
	if tr != nil && isolated {
		heap0 = totalAlloc()
	}
	start := time.Now()
	sp := tr.start("cluster.run", parent)
	res, err := sim.Run()
	if err == nil {
		t := time.Now()
		err = writer.Flush()
		emit += time.Since(t)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.add("syslog.emit", sp, start, emit)
		steps := float64(sim.Engine().Steps())
		tr.note("simclock.steps", steps)
		tr.note("simclock.steps_per_s", steps/time.Since(start).Seconds())
		tr.note("syslog.lines", float64(writer.Lines()))
		tr.note("syslog.bytes", float64(cw.n))
		if isolated {
			tr.note("cluster.run_alloc_mb", mb(totalAlloc()-heap0))
		}
	}
	return &simOutput{res: res, lines: writer.Lines()}, nil
}

// simulatorProbes times the simulator's layers one at a time on the
// scenario's inputs: workload generation, a scheduler replay of the
// generated jobs on an otherwise idle fleet, and the device models without
// a workload. Together with syslog.emit they should add up to cluster.run.
func simulatorProbes(tr *tracer, parent int, cfg cluster.Config) error {
	sp := tr.start("workload.generate", parent)
	gen, err := workload.NewGenerator(*cfg.Workload)
	if err != nil {
		return err
	}
	jobs := gen.Jobs()
	tr.end(sp)
	tr.note("workload.jobs", float64(len(jobs)))

	heap0 := totalAlloc()
	sp = tr.start("slurmsim.schedule", parent)
	started, err := replaySchedule(cfg, jobs)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.note("slurmsim.schedule_alloc_mb", mb(totalAlloc()-heap0))
	tr.note("slurmsim.submitted", float64(len(jobs)))
	tr.note("slurmsim.started_frac", float64(started)/float64(max(len(jobs), 1)))

	devices := cfg
	devices.Workload = nil
	sim, err := cluster.New(devices)
	if err != nil {
		return err
	}
	sp = tr.start("cluster.devices", parent)
	res, err := sim.Run()
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.note("cluster.events", float64(len(res.Events)))
	return nil
}

// replaySchedule submits jobs at their arrival times on a fresh engine with
// the scenario's hosts, the way the cluster feeds its scheduler, and runs
// to the end of the study. It returns how many jobs started.
func replaySchedule(cfg cluster.Config, jobs []*slurmsim.Job) (int, error) {
	engine := simclock.NewEngine(cfg.PreOp.Start)
	sched, err := slurmsim.NewScheduler(cfg.Sched, engine)
	if err != nil {
		return 0, err
	}
	for i := 0; i < cfg.Nodes4+cfg.Nodes8; i++ {
		gpus := 4
		if i >= cfg.Nodes4 {
			gpus = 8
		}
		if err := sched.AddHost(fmt.Sprintf("gpub%03d", i+1), gpus); err != nil {
			return 0, err
		}
	}
	var submitErr error
	var submitFrom func(i int)
	submitFrom = func(i int) {
		now := engine.Now()
		for ; i < len(jobs) && !jobs[i].Submit.After(now); i++ {
			if err := sched.Submit(jobs[i]); err != nil && submitErr == nil {
				submitErr = err
			}
		}
		if i < len(jobs) {
			if _, err := engine.Schedule(jobs[i].Submit, func() { submitFrom(i) }); err != nil && submitErr == nil {
				submitErr = err
			}
		}
	}
	if len(jobs) > 0 {
		if _, err := engine.Schedule(jobs[0].Submit, func() { submitFrom(0) }); err != nil {
			return 0, err
		}
	}
	engine.Run(cfg.Op.End)
	sched.DrainPending()
	started := 0
	for _, j := range jobs {
		if !j.Start.IsZero() {
			started++
		}
	}
	return started, submitErr
}

// analysisInputs is what one core.Analyze call consumed and produced.
type analysisInputs struct {
	events  []xid.Event
	jobs    []*slurmsim.Job
	repairs []time.Duration
	cpu     workload.CPURecord
	res     *core.Results
}

// analysisProbes times Stages II and III one module at a time over the
// inputs a core.Analyze call consumed.
func analysisProbes(tr *tracer, parent int, in analysisInputs) error {
	events, jobs, res := in.events, in.jobs, in.res
	cfg := pipelineConfig(0)
	sp := tr.start("coalesce.events", parent)
	coalesced, err := coalesce.EventsParallel(events, cfg.CoalesceWindow, cfg.Workers)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.note("coalesce.kept_frac", float64(len(coalesced))/float64(max(len(events), 1)))

	sp = tr.start("impact.correlate", parent)
	sink, err = impact.Correlate(jobs, coalesced, impact.Config{
		AttributionWindow: cfg.AttributionWindow,
		Period:            cfg.Op,
		Workers:           cfg.Workers,
	})
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.start("impact.table3", parent)
	sink = impact.TableIII(jobs)
	sink = impact.ComputeJobStats(jobs, in.cpu.Total, in.cpu.Succeeded)
	tr.end(sp)

	full := stats.Period{Name: "characterization", Start: cfg.PreOp.Start, End: cfg.Op.End}
	errorCount := res.PreSummary.TotalExclOutliers + res.OpSummary.TotalExclOutliers
	sp = tr.start("avail.analyze", parent)
	sink, err = avail.Analyze(in.repairs, avail.DefaultConfig(full, cfg.Nodes, errorCount))
	tr.end(sp)
	return err
}

// analyze runs core.Analyze under a core.analyze span.
func analyze(tr *tracer, parent int, events []xid.Event, jobs []*slurmsim.Job,
	repairs []time.Duration, cpu workload.CPURecord, workers int) (*core.Results, error) {
	sp := tr.start("core.analyze", parent)
	res, err := core.Analyze(events, jobs, repairs, cpu, pipelineConfig(workers))
	tr.end(sp)
	return res, err
}

// render writes every table as deltareport does, under a report.render span.
func render(tr *tracer, parent int, res *core.Results) ([]byte, error) {
	sp := tr.start("report.render", parent)
	var buf bytes.Buffer
	err := report.WriteAll(&buf, res)
	tr.end(sp)
	tr.note("report.bytes", float64(buf.Len()))
	return buf.Bytes(), err
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mb converts bytes to MiB.
func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
