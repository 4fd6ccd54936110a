package gpusim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

var now = time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC)

func mustGPU(t *testing.T, cfg Config) *GPU {
	t.Helper()
	g, err := New("gpub001", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMemoryRemapUntilExhaustion(t *testing.T) {
	cfg := DefaultMemoryConfig()
	cfg.SpareRows = 5
	cfg.AccessBeforeRemapProb = 0
	cfg.DBELogProb = 0
	m, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(1)
	for i := 0; i < 5; i++ {
		out := m.Uncorrectable(rng)
		if !out.Remapped {
			t.Fatalf("remap %d failed with spares left", i)
		}
		if out.NeedsReset {
			t.Fatalf("successful remap %d should not need reset", i)
		}
	}
	if m.SpareRowsLeft() != 0 {
		t.Fatalf("spares left = %d", m.SpareRowsLeft())
	}
	out := m.Uncorrectable(rng)
	if out.Remapped {
		t.Fatal("remap succeeded after exhaustion")
	}
	if !out.NeedsReset {
		t.Fatal("RRF must require reset")
	}
	if m.RemapFailures() != 1 {
		t.Fatalf("remap failures = %d", m.RemapFailures())
	}
}

func TestMemoryBrokenRemap(t *testing.T) {
	cfg := DefaultMemoryConfig()
	cfg.RemapFailProb = 1
	cfg.AccessBeforeRemapProb = 0
	m, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Uncorrectable(randx.NewStream(2))
	if out.Remapped {
		t.Fatal("broken remap machinery remapped a row")
	}
	if m.SpareRowsLeft() != cfg.SpareRows {
		t.Fatal("failed remap consumed a spare row")
	}
}

func TestMemoryContainmentPaths(t *testing.T) {
	cfg := DefaultMemoryConfig()
	cfg.AccessBeforeRemapProb = 1
	cfg.ContainmentSuccessProb = 1
	m, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Uncorrectable(randx.NewStream(3))
	if !out.Accessed || !out.Contained {
		t.Fatalf("outcome = %+v, want accessed+contained", out)
	}
	if !out.PageOfflined {
		t.Fatal("contained error with offlining enabled should offline the page")
	}
	if out.NeedsReset {
		t.Fatal("contained error should preserve availability")
	}
	if m.OfflinedPages() != 1 {
		t.Fatalf("offlined pages = %d", m.OfflinedPages())
	}

	cfg.ContainmentSuccessProb = 0
	m2, err := NewMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out2 := m2.Uncorrectable(randx.NewStream(4))
	if out2.Contained || !out2.NeedsReset {
		t.Fatalf("uncontained outcome = %+v", out2)
	}
}

func TestMemoryConfigValidation(t *testing.T) {
	bad := DefaultMemoryConfig()
	bad.SpareRows = -1
	if _, err := NewMemory(bad); err == nil {
		t.Fatal("negative spares accepted")
	}
	bad = DefaultMemoryConfig()
	bad.ContainmentSuccessProb = 1.5
	if _, err := NewMemory(bad); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

// Property: remapped rows never exceed spare rows, and spares-left is always
// in [0, SpareRows], no matter the fault sequence.
func TestMemoryInvariantProperty(t *testing.T) {
	f := func(seed uint64, spares uint8, faults uint8) bool {
		cfg := DefaultMemoryConfig()
		cfg.SpareRows = int(spares % 32)
		m, err := NewMemory(cfg)
		if err != nil {
			return false
		}
		rng := randx.NewStream(seed)
		for i := 0; i < int(faults); i++ {
			m.Uncorrectable(rng)
		}
		return m.RemappedRows() <= cfg.SpareRows &&
			m.SpareRowsLeft() >= 0 && m.SpareRowsLeft() <= cfg.SpareRows &&
			m.RemappedRows()+m.SpareRowsLeft() == cfg.SpareRows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGPUUncorrectableCascadeEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.AccessBeforeRemapProb = 1
	cfg.Memory.ContainmentSuccessProb = 0
	cfg.Memory.DBELogProb = 1
	g := mustGPU(t, cfg)
	out := g.Uncorrectable(now, randx.NewStream(5))
	codes := make(map[xid.Code]int)
	for _, ev := range out.Events {
		codes[ev.Code]++
		if ev.Node != "gpub001" || ev.GPU != 0 || !ev.Time.Equal(now) {
			t.Fatalf("event identity wrong: %+v", ev)
		}
	}
	if codes[xid.DBE] != 1 || codes[xid.RRE] != 1 || codes[xid.UncontainedMem] != 1 {
		t.Fatalf("cascade codes = %v", codes)
	}
	if g.ErrorCount(xid.RRE) != 1 {
		t.Fatal("counter not bumped")
	}
}

func TestGPUReplaceResetsMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.SpareRows = 1
	cfg.Memory.AccessBeforeRemapProb = 0
	g := mustGPU(t, cfg)
	rng := randx.NewStream(6)
	g.Uncorrectable(now, rng)
	g.Uncorrectable(now.Add(time.Minute), rng) // RRF: spares exhausted
	if g.Memory.RemapFailures() != 1 {
		t.Fatalf("remap failures = %d", g.Memory.RemapFailures())
	}
	g.MarkFailed()
	if !g.Failed() {
		t.Fatal("MarkFailed did not stick")
	}
	if err := g.Replace(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if g.Failed() || g.Memory.RemappedRows() != 0 {
		t.Fatal("Replace did not reset device state")
	}
	// Counters describe the slot's log history and must survive replacement.
	if g.ErrorCount(xid.RRF) != 1 {
		t.Fatal("slot counters should survive replacement")
	}
}

func TestGPUComponentEvents(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	if ev := g.MMUError(now, "x"); ev.Code != xid.MMU {
		t.Fatalf("MMU event code = %v", ev.Code)
	}
	if ev := g.GSPError(now, true); ev.Code != xid.GSPRPCTimeout {
		t.Fatalf("GSP timeout code = %v", ev.Code)
	}
	if ev := g.GSPError(now, false); ev.Code != xid.GSPError {
		t.Fatalf("GSP error code = %v", ev.Code)
	}
	if ev := g.PMUError(now, true); ev.Code != xid.PMUSPIReadFail {
		t.Fatalf("PMU read code = %v", ev.Code)
	}
	if ev := g.PMUError(now, false); ev.Code != xid.PMUSPIWriteFail {
		t.Fatalf("PMU write code = %v", ev.Code)
	}
	if ev := g.BusOff(now); ev.Code != xid.FallenOffBus {
		t.Fatalf("bus-off code = %v", ev.Code)
	}
	if ev := g.UncontainedRepeat(now); ev.Code != xid.UncontainedMem {
		t.Fatalf("repeat code = %v", ev.Code)
	}
}

func TestFabricEndpointsValid(t *testing.T) {
	fab, err := NewFabric(4, DefaultNVLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(7)
	for i := 0; i < 10000; i++ {
		lf := fab.Fault(now, "gpub002", rng, nil)
		if lf.A < 0 || lf.A >= 4 || lf.B < 0 || lf.B >= 4 || lf.A >= lf.B {
			t.Fatalf("bad endpoints %d-%d", lf.A, lf.B)
		}
		if len(lf.Events) != 1 && len(lf.Events) != 2 {
			t.Fatalf("events = %d", len(lf.Events))
		}
		if lf.Propagated != (len(lf.Events) == 2) {
			t.Fatal("propagation flag inconsistent with events")
		}
		for _, ev := range lf.Events {
			if ev.Code != xid.NVLink || ev.Node != "gpub002" {
				t.Fatalf("event = %+v", ev)
			}
		}
	}
}

func TestFabricPropagationRate(t *testing.T) {
	fab, err := NewFabric(4, DefaultNVLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(8)
	const n = 50000
	for i := 0; i < n; i++ {
		fab.Fault(now, "n", rng, nil)
	}
	got := float64(fab.Stats().Propagated2P) / n
	if math.Abs(got-0.42) > 0.01 {
		t.Fatalf("propagation rate = %.3f, want ~0.42", got)
	}
}

func TestFabricIdleLinksNeverEscalate(t *testing.T) {
	fab, err := NewFabric(8, DefaultNVLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(9)
	for i := 0; i < 5000; i++ {
		lf := fab.Fault(now, "n", rng, func(a, b int) bool { return false })
		if lf.Active || lf.Escalated {
			t.Fatal("idle link fault marked active/escalated")
		}
	}
	if fab.Stats().Escalations != 0 {
		t.Fatal("idle faults escalated")
	}
}

func TestFabricActiveLinksEscalatePerConfig(t *testing.T) {
	cfg := DefaultNVLinkConfig()
	cfg.ActiveFailProb = 1
	fab, err := NewFabric(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(10)
	for i := 0; i < 100; i++ {
		lf := fab.Fault(now, "n", rng, func(a, b int) bool { return true })
		if !lf.Active || !lf.Escalated {
			t.Fatalf("active fault did not escalate: %+v", lf)
		}
	}
	st := fab.Stats()
	if st.Escalations != 100 || st.Replays != 0 || st.Faults != 100 || st.CRCDetected != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFabricReplayOnSurvival(t *testing.T) {
	cfg := DefaultNVLinkConfig()
	cfg.ActiveFailProb = 0
	fab, err := NewFabric(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(11)
	for i := 0; i < 100; i++ {
		lf := fab.Fault(now, "n", rng, func(a, b int) bool { return true })
		if lf.Escalated {
			t.Fatal("escalated with ActiveFailProb=0")
		}
	}
	if fab.Stats().Replays != 100 {
		t.Fatalf("replays = %d", fab.Stats().Replays)
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(1, DefaultNVLinkConfig()); err == nil {
		t.Fatal("single-GPU fabric accepted")
	}
	bad := DefaultNVLinkConfig()
	bad.PropagateProb = -0.1
	if _, err := NewFabric(4, bad); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestGSPHangAndReset(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	if g.GSP.Hung() {
		t.Fatal("fresh GSP hung")
	}
	g.GSPError(now, true)
	if !g.GSP.Hung() || !g.GSP.HungSince().Equal(now) {
		t.Fatalf("GSP not hung after timeout: since=%v", g.GSP.HungSince())
	}
	// Storm body: more errors do not move the hang start.
	g.GSPError(now.Add(time.Minute), false)
	if !g.GSP.HungSince().Equal(now) {
		t.Fatal("hang start moved")
	}
	g.ResetComponents()
	if g.GSP.Hung() || !g.GSP.HungSince().IsZero() {
		t.Fatal("reset did not clear the hang")
	}
	timeouts, errs, resets := g.GSP.Counters()
	if timeouts != 1 || errs != 1 || resets != 1 {
		t.Fatalf("counters = %d/%d/%d", timeouts, errs, resets)
	}
	// Resetting a healthy GSP is not counted.
	g.ResetComponents()
	if _, _, resets := g.GSP.Counters(); resets != 1 {
		t.Fatal("reset of healthy GSP counted")
	}
}

func TestPMUClockLock(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	if !g.PMU.RequestClockChange() {
		t.Fatal("healthy PMU denied a clock change")
	}
	g.PMUError(now, true)
	if !g.PMU.ClocksLocked() {
		t.Fatal("SPI failure did not lock clocks")
	}
	if g.PMU.RequestClockChange() {
		t.Fatal("locked PMU applied a clock change")
	}
	g.PMUError(now.Add(time.Second), false)
	g.ResetComponents()
	if g.PMU.ClocksLocked() {
		t.Fatal("reset did not unlock clocks")
	}
	if !g.PMU.RequestClockChange() {
		t.Fatal("PMU still denying after reset")
	}
	reads, writes, applied, denied, resets := g.PMU.Counters()
	if reads != 1 || writes != 1 || applied != 2 || denied != 1 || resets != 1 {
		t.Fatalf("counters = %d/%d/%d/%d/%d", reads, writes, applied, denied, resets)
	}
}

func TestReplaceResetsComponents(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	g.GSPError(now, true)
	g.PMUError(now, true)
	if err := g.Replace(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if g.GSP.Hung() || g.PMU.ClocksLocked() {
		t.Fatal("replacement device inherited component state")
	}
	if timeouts, _, _ := g.GSP.Counters(); timeouts != 0 {
		t.Fatal("replacement device inherited GSP counters")
	}
}

func TestCorrectableSBEsSilentUntilSecondHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.AccessBeforeRemapProb = 0
	cfg.Memory.DBELogProb = 0
	g := mustGPU(t, cfg)
	rng := randx.NewStream(20)

	// First SBE at row 7: corrected silently, nothing logged.
	if _, escalated := g.Correctable(now, 7, rng); escalated {
		t.Fatal("first SBE escalated")
	}
	if g.Memory.CorrectedSBEs() != 1 {
		t.Fatalf("corrected = %d", g.Memory.CorrectedSBEs())
	}
	// SBE at a different row: still silent.
	if _, escalated := g.Correctable(now, 8, rng); escalated {
		t.Fatal("SBE on fresh row escalated")
	}
	// Second SBE at row 7: escalates to the uncorrectable cascade (RRE).
	out, escalated := g.Correctable(now, 7, rng)
	if !escalated {
		t.Fatal("second SBE at same row did not escalate")
	}
	if len(out.Events) != 1 || out.Events[0].Code != xid.RRE {
		t.Fatalf("cascade events = %+v", out.Events)
	}
	// The row was remapped; its SBE count reset, so the next hit is silent.
	if _, escalated := g.Correctable(now, 7, rng); escalated {
		t.Fatal("SBE after remap escalated immediately")
	}
	if g.Memory.CorrectedSBEs() != 4 {
		t.Fatalf("corrected = %d", g.Memory.CorrectedSBEs())
	}
}

func TestSBEStateResetOnReplace(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	rng := randx.NewStream(21)
	g.Correctable(now, 3, rng)
	if err := g.Replace(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if g.Memory.CorrectedSBEs() != 0 {
		t.Fatal("replacement kept SBE history")
	}
	// Post-replacement, the first hit on row 3 is again silent.
	if _, escalated := g.Correctable(now, 3, rng); escalated {
		t.Fatal("fresh device escalated on first SBE")
	}
}

func TestNewGPUValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.SpareRows = -5
	if _, err := New("n", 0, cfg); err == nil {
		t.Fatal("invalid memory config accepted")
	}
}

// TestGenerationTracksInspectedState: exactly the calls that change
// Failed, RemapFailures or SpareRowsLeft bump the shared generation.
func TestGenerationTracksInspectedState(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	var gen uint64
	g.SetGeneration(&gen)
	rng := randx.NewStream(1)
	steps := []struct {
		name string
		do   func()
		bump bool
	}{
		{"MarkFailed", g.MarkFailed, true},
		{"Replace", func() { _ = g.Replace(DefaultConfig()) }, true},
		{"Uncorrectable", func() { g.Uncorrectable(now, rng) }, true},
		{"Memory.Reconfigure", func() { _ = g.Memory.Reconfigure(DefaultMemoryConfig()) }, true},
		{"first SBE", func() { g.Correctable(now, 7, rng) }, false},
		{"second SBE escalates", func() { g.Correctable(now, 7, rng) }, true},
		{"ResetComponents", g.ResetComponents, false},
		{"GSPError", func() { g.GSPError(now, true) }, false},
		{"BusOff", func() { g.BusOff(now) }, false},
		{"Uncorrectable on the replacement", func() { g.Uncorrectable(now, rng) }, true},
	}
	for _, s := range steps {
		before := gen
		s.do()
		if bumped := gen != before; bumped != s.bump {
			t.Fatalf("%s: generation bumped=%v, want %v", s.name, bumped, s.bump)
		}
	}
}
