package gpusim

import (
	"errors"

	"gpuresilience/internal/randx"
)

// MemoryConfig parameterizes the A100 HBM2e error-management model.
type MemoryConfig struct {
	// SpareRows is the number of remappable rows the device ships with.
	// A100 supports up to 512 row remappings (vs 64 page retirements and no
	// remapping on earlier generations).
	SpareRows int

	// DBELogProb is the probability an uncorrectable error is additionally
	// surfaced as a legacy XID 48 DBE log line. On Ampere most uncorrectable
	// errors are reported through the containment path instead; Delta saw a
	// single XID 48 in 895 operational days.
	DBELogProb float64

	// AccessBeforeRemapProb is the probability a running process touches the
	// poisoned address before the remap takes effect, forcing the driver to
	// attempt error containment.
	AccessBeforeRemapProb float64

	// ContainmentSuccessProb is the probability error containment succeeds
	// (XID 94) rather than failing (XID 95) when triggered.
	ContainmentSuccessProb float64

	// RemapFailProb models a device whose remap machinery is defective: a
	// remap attempt fails outright with this probability even when spare
	// rows remain. Zero on healthy devices.
	RemapFailProb float64

	// PageOfflining reflects the A100 dynamic page-offlining feature: when
	// enabled, a successfully contained error additionally offlines the page
	// so the node keeps running without a reset.
	PageOfflining bool
}

// DefaultMemoryConfig returns the healthy-device configuration, with the
// cascade probabilities at their paper-calibrated operational-period values
// (34 uncorrectable errors -> 34 RRE, 0 RRF, 13 contained, 11 uncontained,
// 1 XID 48).
func DefaultMemoryConfig() MemoryConfig {
	return MemoryConfig{
		SpareRows:              512,
		DBELogProb:             0.05,
		AccessBeforeRemapProb:  24.0 / 34.0,
		ContainmentSuccessProb: 13.0 / 24.0,
		RemapFailProb:          0,
		PageOfflining:          true,
	}
}

// Memory is the per-device error-management state machine.
type Memory struct {
	cfg           MemoryConfig
	remappedRows  int
	remapFailures int
	offlinedPages int

	sbeCorrected int
	sbeByRow     map[int]int

	gen *uint64 // the owning GPU's health generation; see GPU.SetGeneration
}

// NewMemory validates cfg and returns a fresh memory subsystem.
func NewMemory(cfg MemoryConfig) (*Memory, error) {
	if cfg.SpareRows < 0 {
		return nil, errors.New("gpusim: negative spare row count")
	}
	for _, p := range []float64{
		cfg.DBELogProb, cfg.AccessBeforeRemapProb, cfg.ContainmentSuccessProb, cfg.RemapFailProb,
	} {
		if p < 0 || p > 1 {
			return nil, errors.New("gpusim: memory probability out of [0,1]")
		}
	}
	return &Memory{cfg: cfg}, nil
}

// Correctable records a single-bit error at a row. SBEs are silently
// corrected by SECDED ECC and never logged (which is why the study cannot
// count them), but the A100 driver tracks them per address: a second SBE at
// the same row is treated as uncorrectable and triggers the remap cascade.
// The return value reports whether the caller must now run Uncorrectable.
func (m *Memory) Correctable(row int) (escalate bool) {
	m.sbeCorrected++
	if m.sbeByRow == nil {
		m.sbeByRow = make(map[int]int)
	}
	m.sbeByRow[row]++
	if m.sbeByRow[row] == 2 {
		// Reset the per-row count: after the remap the row is replaced.
		delete(m.sbeByRow, row)
		return true
	}
	return false
}

// CorrectedSBEs returns how many single-bit errors ECC silently corrected.
func (m *Memory) CorrectedSBEs() int { return m.sbeCorrected }

// Reconfigure swaps the cascade probabilities while preserving device state
// (remapped rows, failures, offlined pages). The simulation uses it at the
// pre-operational/operational boundary and when marking a device defective.
func (m *Memory) Reconfigure(cfg MemoryConfig) error {
	if _, err := NewMemory(cfg); err != nil {
		return err
	}
	m.cfg = cfg
	bump(m.gen)
	return nil
}

// MemOutcome describes what one uncorrectable fault did to the device.
type MemOutcome struct {
	LoggedDBE bool // legacy XID 48 emitted
	Remapped  bool // row remap succeeded (XID 63); false means XID 64
	Accessed  bool // a process touched the poisoned page -> containment ran
	Contained bool // containment succeeded (XID 94); false w/ Accessed -> XID 95
	// PageOfflined reports that dynamic page offlining isolated the page, so
	// node availability is preserved without a reset.
	PageOfflined bool
	// NeedsReset reports that the device needs a GPU reset (remap failure or
	// uncontained error).
	NeedsReset bool
}

// Uncorrectable runs the error-management cascade for one uncorrectable
// fault and updates device state.
func (m *Memory) Uncorrectable(rng *randx.Stream) MemOutcome {
	bump(m.gen)
	var out MemOutcome
	out.LoggedDBE = rng.Bool(m.cfg.DBELogProb)

	switch {
	case m.remappedRows >= m.cfg.SpareRows:
		out.Remapped = false // spare rows exhausted
	case rng.Bool(m.cfg.RemapFailProb):
		out.Remapped = false // defective remap machinery
	default:
		out.Remapped = true
		m.remappedRows++
	}
	if !out.Remapped {
		m.remapFailures++
		out.NeedsReset = true
	}

	out.Accessed = rng.Bool(m.cfg.AccessBeforeRemapProb)
	if out.Accessed {
		out.Contained = rng.Bool(m.cfg.ContainmentSuccessProb)
		if out.Contained && m.cfg.PageOfflining {
			out.PageOfflined = true
			m.offlinedPages++
		}
		if !out.Contained {
			out.NeedsReset = true
		}
	}
	return out
}

// SpareRowsLeft returns how many spare rows remain.
func (m *Memory) SpareRowsLeft() int {
	left := m.cfg.SpareRows - m.remappedRows
	if left < 0 {
		return 0
	}
	return left
}

// RemappedRows returns how many rows have been remapped so far.
func (m *Memory) RemappedRows() int { return m.remappedRows }

// RemapFailures returns how many remap attempts failed (RRFs).
func (m *Memory) RemapFailures() int { return m.remapFailures }

// OfflinedPages returns how many pages dynamic page offlining isolated.
func (m *Memory) OfflinedPages() int { return m.offlinedPages }
