package cluster

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"gpuresilience/internal/faults"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// settleGoroutines waits for goroutines that have signalled completion to
// exit, then reports whether the count is back to want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSoftwareXIDNodeDeterministic fails one multi-node job with
// SoftwareXIDProb=1: the software XID it logs must name the same node on
// every run, the first of its placement by name.
func TestSoftwareXIDNodeDeterministic(t *testing.T) {
	var nodes []string
	for i := 0; i < 20; i++ {
		cfg := testConfig(21)
		cfg.SoftwareXIDProb = 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job := &slurmsim.Job{
			Name: "lammps_melt", User: "user001", Partition: "gpuA100x4",
			GPUs: 16, RunDuration: time.Hour, TimeLimit: 2 * time.Hour,
			FailNaturally: true, NaturalExitCode: 1,
		}
		if _, err := c.Engine().Schedule(preOp.Start.Add(time.Hour), func() {
			if err := c.sched.Submit(job); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if job.State != slurmsim.StateFailed || len(job.Place) < 2 {
			t.Fatalf("job state %v on %d nodes, want a failed multi-node job", job.State, len(job.Place))
		}
		var soft []xid.Event
		for _, ev := range res.Events {
			if ev.Code == xid.GPUSoftware || ev.Code == xid.ResetChannel {
				soft = append(soft, ev)
			}
		}
		if len(soft) != 1 {
			t.Fatalf("%d software XIDs, want 1", len(soft))
		}
		if first := job.Place[0].Node; soft[0].Node != first {
			t.Fatalf("software XID on %s, want the placement's first node %s", soft[0].Node, first)
		}
		nodes = append(nodes, soft[0].Node)
	}
	for i, n := range nodes {
		if n != nodes[0] {
			t.Fatalf("run %d logged the software XID on %s, run 0 on %s", i, n, nodes[0])
		}
	}
}

// workloadConfig is a small cluster with a workload large enough that the
// generator fills the hand-off and blocks ahead of the engine, and with
// enough events (MMU episodes, software XIDs) to fill the sink's hand-off.
func workloadConfig(seed uint64) Config {
	cfg := testConfig(seed)
	wl := workload.DefaultConfig(seed, op, 0.01)
	cfg.Workload = &wl
	cfg.SoftwareXIDProb = 1
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindMMU, Episodes: 200, MeanSize: 2, MeanGap: time.Minute},
	}
	return cfg
}

func TestEventSinkSeesEventsInOrder(t *testing.T) {
	c, err := New(workloadConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []xid.Event
	c.SetEventSink(func(ev xid.Event) error {
		streamed = append(streamed, ev)
		return nil
	})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) < 2000 || !slices.Equal(streamed, res.Events) {
		t.Fatalf("sink saw %d events, result has %d, or their order differs", len(streamed), len(res.Events))
	}
}

func TestEventSinkErrorStopsCalls(t *testing.T) {
	errSink := errors.New("disk full")
	for _, failAt := range []int{1, 300, 1000} {
		before := runtime.NumGoroutine()
		c, err := New(workloadConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		c.SetEventSink(func(xid.Event) error {
			calls++
			if calls == failAt {
				return errSink
			}
			return nil
		})
		res, err := c.Run()
		if res != nil || !errors.Is(err, errSink) || err.Error() != "cluster: event sink: disk full" {
			t.Fatalf("failAt %d: Run = (result %t, %v)", failAt, res != nil, err)
		}
		if calls != failAt {
			t.Fatalf("failAt %d: sink called %d times", failAt, calls)
		}
		settleGoroutines(t, before)
	}
}

// TestRunErrorStopsGoroutines fails Run after the generator and the sink
// have started: both must be gone when Run returns.
func TestRunErrorStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := workloadConfig(9)
	cfg.FaultyGPU = &FaultyGPUScenario{Node: 99}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEventSink(func(xid.Event) error { return nil })
	if _, err := c.Run(); err == nil {
		t.Fatal("out-of-range faulty node accepted")
	}
	settleGoroutines(t, before)
}
