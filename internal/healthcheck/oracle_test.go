package healthcheck

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/gpusim"
	"gpuresilience/internal/nodesim"
	"gpuresilience/internal/randx"
	"gpuresilience/internal/simclock"
)

// oracleSweep is the historical sweep, kept verbatim (bar its name and the
// bound event it reschedules) as the differential oracle for the
// generation-gated sweep: it inspects every GPU of every Up node.
func (m *Monitor) oracleSweep() {
	m.sweeps++
	for _, n := range m.nodes {
		if !n.Up() {
			continue // already in service; the recovery path owns it
		}
		if gpu, reason, bad := m.inspect(n); bad {
			if n.ForceReplace(reason) {
				m.actions = append(m.actions, Action{
					Time:   m.engine.Now(),
					Node:   n.Name(),
					GPU:    gpu,
					Reason: reason,
				})
			}
		}
	}
	next := m.engine.Now().Add(m.cfg.Interval)
	if m.cfg.Jitter > 0 {
		next = next.Add(time.Duration(m.rng.Float64() * float64(m.cfg.Jitter)))
	}
	if next.Before(m.until) {
		// Scheduling in the future from the current event cannot fail.
		_, _ = m.engine.Schedule(next, m.sweepFn)
	}
}

// withSweep makes the monitors New builds run sweep until the test ends.
func withSweep(t testing.TB, sweep func(*Monitor)) {
	old := sweepImpl
	sweepImpl = sweep
	t.Cleanup(func() { sweepImpl = old })
}

// scriptOutcome is everything a scripted fleet run shows of the monitor.
type scriptOutcome struct {
	actions []Action
	sweeps  int
	ledgers [][]nodesim.Downtime
}

// runScript drives a six-node fleet for 60 days under a monitor with cfg,
// applying a seeded random sequence of device changes: failure marks,
// uncorrectable faults on devices whose remap machinery may be defective,
// memory reconfigurations that move the spare-row budget, forced swaps and
// service cycles, so devices also degrade while their node is in service.
func runScript(t *testing.T, seed uint64, cfg Config) scriptOutcome {
	t.Helper()
	eng := simclock.NewEngine(t0)
	gpuCfg := gpusim.DefaultConfig()
	gpuCfg.Memory.RemapFailProb = 0.2
	nodes := fleet(t, eng, 6, gpuCfg)
	m, err := New(cfg, eng, randx.NewStream(seed), nodes)
	if err != nil {
		t.Fatal(err)
	}
	end := t0.Add(60 * 24 * time.Hour)
	if err := m.Start(end); err != nil {
		t.Fatal(err)
	}
	script := randx.NewStream(seed + 1000)
	faults := randx.NewStream(seed + 2000)
	for at := t0; ; {
		at = at.Add(time.Duration(script.Exponential(1) * float64(time.Hour)))
		if !at.Before(end) {
			break
		}
		n := nodes[script.Intn(len(nodes))]
		g := n.GPU(script.Intn(n.NumGPUs()))
		op := script.Intn(6)
		spare := []int{512, 520, 16, 3}[script.Intn(4)]
		if _, err := eng.Schedule(at, func() {
			switch op {
			case 0:
				g.MarkFailed()
			case 1, 2:
				g.Uncorrectable(eng.Now(), faults)
			case 3:
				mem := gpuCfg.Memory
				mem.SpareRows = spare
				if err := g.Memory.Reconfigure(mem); err != nil {
					t.Error(err)
				}
			case 4:
				n.ForceReplace("scripted swap")
			case 5:
				n.BeginService("scripted service")
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunAll()
	out := scriptOutcome{actions: m.Actions(), sweeps: m.Sweeps()}
	for _, n := range nodes {
		out.ledgers = append(out.ledgers, n.Ledger())
	}
	return out
}

// oracleConfigs are the health configs the differential tests cover: the
// default and one variant per pull rule.
func oracleConfigs() map[string]Config {
	def := DefaultConfig()
	rrf := DefaultConfig()
	rrf.MaxRemapFailures = 1
	spare := DefaultConfig()
	spare.MinSpareRows = 510
	keepFailed := DefaultConfig()
	keepFailed.ReplaceFailedDevices = false
	return map[string]Config{"default": def, "MaxRemapFailures=1": rrf,
		"MinSpareRows=510": spare, "ReplaceFailedDevices=false": keepFailed}
}

// TestGatedSweepMatchesOracle: over random device-change sequences, the
// gated monitor takes the same actions on the same sweeps as the full one.
func TestGatedSweepMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for seed := uint64(1); seed <= 8; seed++ {
			withSweep(t, (*Monitor).oracleSweep)
			want := runScript(t, seed, cfg)
			withSweep(t, (*Monitor).sweep)
			got := runScript(t, seed, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: gated sweep diverges:\n got %d sweeps %+v\nwant %d sweeps %+v",
					name, seed, got.sweeps, got.actions, want.sweeps, want.actions)
			}
			if len(want.actions) == 0 {
				t.Fatalf("%s seed %d: the script never tripped the monitor", name, seed)
			}
		}
	}
}

// TestDeviceDegradedInServicePulledOnReturn: a device that fails while its
// node is in service is pulled by the first sweep after the node is Up
// again, although the node's last inspection was clean.
func TestDeviceDegradedInServicePulledOnReturn(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 2, gpusim.DefaultConfig())
	cfg := DefaultConfig()
	m, err := New(cfg, eng, randx.NewStream(15), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	var upAt time.Time
	nodes[0].OnStateChange = func(n *nodesim.Node, from, to nodesim.State) {
		if to == nodesim.StateUp && upAt.IsZero() {
			upAt = eng.Now()
		}
	}
	// Two clean sweeps have passed by 2h30m; the node enters service and
	// loses a device while draining.
	if _, err := eng.Schedule(t0.Add(150*time.Minute), func() {
		if m.Sweeps() != 2 || len(m.Actions()) != 0 {
			t.Errorf("before service: %d sweeps, actions %+v", m.Sweeps(), m.Actions())
		}
		nodes[0].BeginService("maintenance")
		nodes[0].GPU(3).MarkFailed()
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	actions := m.Actions()
	if upAt.IsZero() || len(actions) != 1 {
		t.Fatalf("node up at %v, actions %+v", upAt, actions)
	}
	a := actions[0]
	if a.Node != nodes[0].Name() || a.GPU != 3 || !strings.Contains(a.Reason, "unreachable") {
		t.Fatalf("action = %+v", a)
	}
	if !a.Time.After(upAt) || a.Time.Sub(upAt) > cfg.Interval+cfg.Jitter {
		t.Fatalf("pulled at %v, node up at %v: not the first sweep after", a.Time, upAt)
	}
}
