package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/workload"
)

const (
	// offeredRate is the open-loop generator's fixed line rate.
	offeredRate = 5000.0
	// daemonPoll is the daemon's poll and refresh interval; every tick that
	// saw new input publishes a snapshot.
	daemonPoll = 10 * time.Millisecond
	// maxLag is how late the generator may run before the daemon counts as
	// not keeping up with the offered rate and the run is invalid.
	maxLag = time.Second
)

// streamInputs is a simulated run replayed into the daemon, with the batch
// rendering of the same lines as the reference.
type streamInputs struct {
	lines     []string
	jobs      []*slurmsim.Job
	downtimes []cluster.NodeDowntime
	cpu       workload.CPURecord
	ref       map[string][]byte // table name -> batch text
}

// setupStream simulates the scale-0.05 scenario, keeps the first offered
// lines of its log, and renders them through the batch pipeline at one
// worker, exactly as the table endpoints render them.
func setupStream(o options, tr *tracer, offered int) (*streamInputs, error) {
	sc := calib.NewScenario(o.seed, 0.05*o.scale)
	var buf bytes.Buffer
	sim, err := simulate(tr, -1, sc.Cluster, &buf, true)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := simulatorProbes(tr, -1, sc.Cluster); err != nil {
			return nil, err
		}
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	in := &streamInputs{
		lines:     lines[:min(offered, len(lines))],
		jobs:      sim.res.Jobs,
		downtimes: sim.res.Downtimes,
		cpu:       sim.res.CPU,
	}
	res, err := in.batch(nil, 1)
	if err != nil {
		return nil, err
	}
	in.ref, err = in.tables(res)
	return in, err
}

// batch runs Stages I-III over the offered lines.
func (in *streamInputs) batch(tr *tracer, workers int) (*core.Results, error) {
	text := strings.Join(in.lines, "\n") + "\n"
	events, st, err := core.ExtractEventsParallel(strings.NewReader(text), workers)
	if err != nil {
		return nil, err
	}
	repairs := cluster.Durations(in.downtimes)
	res, err := analyze(tr, -1, events, in.jobs, repairs, in.cpu, workers)
	if err != nil {
		return nil, err
	}
	res.Extract = st
	if tr != nil {
		if _, err := render(tr, -1, res); err != nil {
			return nil, err
		}
		err = analysisProbes(tr, -1, analysisInputs{events, in.jobs, repairs, in.cpu, res})
	}
	return res, err
}

// tables renders the three text tables the daemon serves, the way the
// xidstat, jobimpact and availability CLIs print them.
func (in *streamInputs) tables(res *core.Results) (map[string][]byte, error) {
	docs := make(map[string][]byte, 3)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scanned %d lines: %d XID lines, %d noise, %d malformed -> %d coalesced errors\n\n",
		res.Extract.Lines, res.Extract.XIDLines, res.Extract.Skipped, res.Extract.Malformed, res.CoalescedEvents)
	if err := report.WriteTableI(&buf, res); err != nil {
		return nil, err
	}
	docs[stream.TableXIDStat] = bytes.Clone(buf.Bytes())

	buf.Reset()
	if err := report.WriteTableII(&buf, res); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	if err := report.WriteTableIII(&buf, res); err != nil {
		return nil, err
	}
	docs[stream.TableJobImpact] = bytes.Clone(buf.Bytes())

	buf.Reset()
	downByNode := make(map[string]float64)
	for _, d := range in.downtimes {
		downByNode[d.Node] += d.Duration().Hours()
	}
	cfg := pipelineConfig(1)
	full := stats.Period{Name: "characterization", Start: cfg.PreOp.Start, End: cfg.Op.End}
	errorCount := res.PreSummary.TotalExclOutliers + res.OpSummary.TotalExclOutliers
	if err := report.WriteAvailability(&buf, res.Avail, downByNode, full, errorCount > 0); err != nil {
		return nil, err
	}
	docs[stream.TableAvailability] = bytes.Clone(buf.Bytes())
	return docs, nil
}

// replayResult is what one open-loop replay observed.
type replayResult struct {
	lateMS     []float64 // per line: send time minus due time
	freshMS    []float64 // per snapshot: first seen minus due time of its newest line
	intervals  []float64 // seconds between consecutive snapshot builds
	snapshots  int
	openMax    int
	consumeS   float64 // seconds inside the engine's ConsumeLine
	ingestRate float64 // lines per second actually consumed
	cpuS       float64 // process CPU over the replay
	allocMB    float64
	gcCycles   float64
	gcPauseMS  float64
	failed     int // lines that errored, were malformed, or were quarantined late
	mismatch   bool
}

// replay offers the lines open-loop at offeredRate to a daemon. Untraced it
// is the real stream.Daemon; traced it is the same loop composed from the
// engine's public calls with spans around them. The calling goroutine is
// both the generator and the snapshot watcher, so the harness adds one busy
// goroutine to the daemon's.
func replay(in *streamInputs, tr *tracer) (*replayResult, error) {
	engine, err := stream.New(stream.Config{
		Pipeline:  pipelineConfig(0),
		Jobs:      in.jobs,
		Downtimes: in.downtimes,
		CPU:       in.cpu,
	})
	if err != nil {
		return nil, err
	}
	feed := stream.NewFeed(engine, "syslog")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var srv *stream.Server
	done := make(chan error, 1)
	if tr == nil {
		d := stream.NewDaemon(engine, stream.DaemonConfig{Poll: daemonPoll, Refresh: daemonPoll, IdleSeal: time.Hour})
		srv = d.Server()
		go func() { done <- d.Run(ctx) }()
	} else {
		srv = stream.NewServer(nil, nil, nil)
		go func() { done <- tracedDaemon(ctx, tr, engine, srv) }()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	r := &replayResult{}
	n := len(in.lines)
	t0 := time.Now()
	due := func(i int) time.Time { return t0.Add(time.Duration(float64(i) / offeredRate * float64(time.Second))) }
	var seen *stream.Snapshot
	observe := func() {
		s := srv.Latest()
		if s == nil || s == seen {
			return
		}
		now := time.Now()
		if seen != nil && !seen.BuiltAt.IsZero() {
			r.intervals = append(r.intervals, s.BuiltAt.Sub(seen.BuiltAt).Seconds())
		}
		seen = s
		r.snapshots++
		r.openMax = max(r.openMax, s.Status.OpenState())
		if k := linesOf(s); k > 0 {
			r.freshMS = append(r.freshMS, float64(now.Sub(due(int(k)-1)))/1e6)
		}
	}
	var consume time.Duration
	for i := 0; i < n; {
		for now := time.Now(); i < n && !due(i).After(now); i++ {
			t := time.Now()
			if err := feed.Line(in.lines[i]); err != nil {
				r.failed++
			}
			consume += time.Since(t)
			r.lateMS = append(r.lateMS, float64(t.Sub(due(i)))/1e6)
		}
		observe()
		if i < n {
			time.Sleep(time.Until(due(i)))
		}
	}
	r.ingestRate = float64(n) / time.Since(t0).Seconds()
	r.consumeS = consume.Seconds()
	for deadline := time.Now().Add(30 * time.Second); seen == nil || linesOf(seen) < int64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			cancel()
			<-done
			return nil, fmt.Errorf("no snapshot reflected all %d lines within 30s", n)
		}
		observe()
	}
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	r.cpuS = (c1 - c0).Seconds()
	r.allocMB = mb(m1.TotalAlloc - m0.TotalAlloc)
	r.gcCycles = float64(m1.NumGC - m0.NumGC)
	r.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	cancel()
	if err := <-done; err != nil {
		return nil, err
	}
	final := srv.Latest()
	st := final.Status
	r.failed += st.Extract.Malformed + int(st.Quarantine.Late)
	for name, want := range in.ref {
		doc := final.Tables[name]
		if doc == nil || !bytes.Equal(doc.Text, want) {
			r.mismatch = true
			fmt.Fprintf(os.Stderr, "perfbench: stream table %s differs from the batch rendering\n", name)
		}
	}
	if tr != nil {
		tr.note("stream.late", float64(st.Quarantine.Late))
	}
	return r, nil
}

// failures counts the failed lines of a replay of n: every line when the
// final tables mismatch or the generator fell behind, else the lines that
// errored, were malformed or were quarantined late.
func (r *replayResult) failures(n int) int {
	if r.mismatch || quantile(r.lateMS, 1) >= float64(maxLag.Milliseconds()) {
		return n
	}
	return r.failed
}

// linesOf is how many offered lines a snapshot's status reflects.
func linesOf(s *stream.Snapshot) int64 {
	if len(s.Status.Sources) == 0 {
		return 0
	}
	return s.Status.Sources[0].Lines
}

// tracedDaemon is stream.Daemon's loop for in-process feeds — advance the
// watermark every poll, publish when the engine moved, seal and publish
// once more on shutdown — with spans around the engine calls.
func tracedDaemon(ctx context.Context, tr *tracer, engine *stream.Engine, srv *stream.Server) error {
	publish := func() error {
		sp := tr.start("stream.snapshot", -1)
		snap, err := stream.BuildSnapshot(engine)
		tr.end(sp)
		if err != nil {
			return err
		}
		snap.BuiltAt = time.Now()
		srv.Publish(snap)
		return nil
	}
	if err := publish(); err != nil {
		return err
	}
	ticker := time.NewTicker(daemonPoll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			engine.FlushAll()
			return publish()
		case <-ticker.C:
		}
		sp := tr.start("stream.advance", -1)
		engine.Advance()
		tr.end(sp)
		if engine.Gen() != srv.Latest().Gen {
			if err := publish(); err != nil {
				return err
			}
		}
	}
}

// runStream sets the stream workload up and replays it for the run's
// seconds. Traced, it replays half the seconds through the real daemon and
// half through the traced loop, so the overhead is measured in one run.
func runStream(o options, tr *tracer) (*outcome, error) {
	seconds := o.seconds
	if tr != nil {
		seconds /= 2
	}
	offered := max(1, int(offeredRate*seconds))
	setupTimes, in, err := timedSetups(o, tr,
		func(string) (*streamInputs, error) { return setupStream(o, tr, offered) },
		func(*streamInputs) {})
	if err != nil {
		return nil, err
	}
	if o.corruptReference {
		in.ref[stream.TableXIDStat] = append([]byte("corrupted "), in.ref[stream.TableXIDStat]...)
	}
	r, err := replay(in, nil)
	if err != nil {
		return nil, err
	}
	n := len(in.lines)
	out := &outcome{attempted: n, failed: r.failures(n)}
	snaps := float64(max(r.snapshots, 1))
	wall := median(r.intervals)
	out.e2e = []metric{
		{"wall_p50_s", wall, "s", fmt.Sprintf("median interval between %d snapshots", len(r.intervals)+1)},
		{"lines_per_s", r.ingestRate, "1/s", fmt.Sprintf("achieved, %d lines offered at %.0f/s", len(in.lines), offeredRate)},
		{"fresh_p50_ms", median(r.freshMS), "ms", fmt.Sprintf("median of %d snapshots", len(r.freshMS))},
		{"cpu_s", r.cpuS / snaps, "s", "per snapshot"},
		{"alloc_mb", r.allocMB / snaps, "MiB", "per snapshot"},
		{"setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(setupTimes))},
	}
	out.extra = []metric{
		{"fresh_p95_ms", quantile(r.freshMS, 0.95), "ms", fmt.Sprintf("%d snapshots", len(r.freshMS))},
		{"cpu_run_s", r.cpuS, "s", "whole replay"},
		{"loadgen.late_p50_ms", median(r.lateMS), "ms", fmt.Sprintf("%d lines", len(r.lateMS))},
		{"loadgen.late_max_ms", quantile(r.lateMS, 1), "ms", fmt.Sprintf("run invalid at %v", maxLag)},
	}
	if tr == nil {
		return out, nil
	}

	tr.setIter(0)
	tracedRun, err := replay(in, tr)
	if err != nil {
		return nil, err
	}
	out.attempted += n
	out.failed += tracedRun.failures(n)
	twall := median(tracedRun.intervals)
	tr.note("stream.consume_s", tracedRun.consumeS)
	tr.note("stream.snapshots", float64(tracedRun.snapshots))
	tr.note("stream.open_state_max", float64(tracedRun.openMax))
	tr.note("runtime.gc_cycles", tracedRun.gcCycles/float64(max(tracedRun.snapshots, 1)))
	tr.note("runtime.gc_pause_ms", tracedRun.gcPauseMS/float64(max(tracedRun.snapshots, 1)))
	out.extra = append(out.extra,
		metric{"trace.wall_p50_s", twall, "s", "traced snapshot interval"},
		metric{"trace.overhead_s", twall - wall, "s", "traced minus untraced wall_p50_s"})
	tr.setIter(1)
	_, err = in.batch(tr, 0)
	return out, err
}
