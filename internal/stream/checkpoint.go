package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// checkpointVersion guards the on-disk format; Load rejects other versions
// instead of silently misreading state.
const checkpointVersion = 1

// SourceCheckpoint is one ingest source's replay position: the engine-side
// accounting plus the tailer's byte offset into the file (zero for
// in-process feeds). On resume a tailer seeks to Offset and the engine's
// line high-water mark absorbs any redelivered lines.
type SourceCheckpoint struct {
	// Name identifies the source (the tailed path, or a feed's name).
	Name string `json:"name"`
	// Lines is the consumed line-number high-water mark.
	Lines int64 `json:"lines"`
	// Bytes counts consumed line bytes.
	Bytes int64 `json:"bytes"`
	// Dups counts redelivered lines absorbed by the high-water mark.
	Dups int64 `json:"dups,omitempty"`
	// ClockRegressions counts events timestamped before a predecessor.
	ClockRegressions int64 `json:"clockRegressions,omitempty"`
	// LastEvent is the newest event time seen from this source.
	LastEvent time.Time `json:"lastEvent,omitempty"`
	// Offset is the byte offset the source's tailer had consumed through.
	Offset int64 `json:"offset,omitempty"`
}

// CoalescerState is the persistent coalescer's checkpointed form.
type CoalescerState struct {
	// Entries are the open per-(node,gpu,code) windows.
	Entries []coalesce.KeyState `json:"entries,omitempty"`
	// Raw and Kept restore the coalescer's event accounting.
	Raw  int `json:"raw"`
	Kept int `json:"kept"` // see Raw
}

// Checkpoint is a replayable record of a streaming run — the run-manifest
// idea extended with resume state. A daemon restarted from a checkpoint
// continues from the last sealed watermark: sealed results, the pending
// buffer, the coalescer's open windows, per-source positions, and the
// quarantine all carry over, so it never re-reads history and redelivered
// lines dedupe against the per-source line marks.
type Checkpoint struct {
	// Version is the on-disk format version; Resume rejects others.
	Version int `json:"version"`
	// Manifest is the provenance record (tool, go version, pipeline
	// settings, input digests) the batch CLIs emit, reused unchanged.
	Manifest *obs.RunManifest `json:"manifest,omitempty"`

	// Horizon is the watermark horizon the run used; Resume refuses a
	// mismatch, since it changes which events would have been quarantined.
	Horizon time.Duration `json:"horizon"`
	// Watermark and HasWatermark restore the sealing frontier.
	Watermark    time.Time `json:"watermark"`
	HasWatermark bool      `json:"hasWatermark"` // see Watermark
	// MaxEventTime and HasMaxEvent restore the newest-event tracker.
	MaxEventTime time.Time `json:"maxEventTime"`
	HasMaxEvent  bool      `json:"hasMaxEvent"` // see MaxEventTime

	// SealedRaw counts sealed events pre-coalescing.
	SealedRaw int `json:"sealedRaw"`
	// Sealed is the coalesced Stage II store in canonical order.
	Sealed []xid.Event `json:"sealed,omitempty"`
	// Pending holds unsealed events in arrival order.
	Pending []xid.Event `json:"pending,omitempty"`

	// Coalescer restores the open coalescing windows.
	Coalescer CoalescerState `json:"coalescer"`
	// Extract is the cumulative Stage I line accounting.
	Extract syslog.ExtractStats `json:"extract"`
	// Quarantine carries the late-event record across restarts.
	Quarantine Quarantine `json:"quarantine"`
	// Sources are the per-source replay positions, sorted by name.
	Sources []SourceCheckpoint `json:"sources,omitempty"`
	// Gen is the engine's change counter at checkpoint time.
	Gen uint64 `json:"gen"`
}

// Checkpoint snapshots the engine into a replayable record. The daemon adds
// tailer offsets and the manifest before saving.
func (e *Engine) Checkpoint() *Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries, raw, kept := e.co.State()
	cp := &Checkpoint{
		Version:      checkpointVersion,
		Horizon:      e.cfg.Horizon,
		Watermark:    e.watermark,
		HasWatermark: e.hasWatermark,
		MaxEventTime: e.maxEvent,
		HasMaxEvent:  e.hasMaxEvent,
		SealedRaw:    e.sealedRaw,
		Sealed:       append([]xid.Event(nil), e.sealed...),
		Pending:      append([]xid.Event(nil), e.pending...),
		Coalescer:    CoalescerState{Entries: entries, Raw: raw, Kept: kept},
		Extract:      e.extract,
		Quarantine: Quarantine{
			Late:    e.quarantine.Late,
			Samples: append([]LateEvent(nil), e.quarantine.Samples...),
		},
		Gen: e.gen,
	}
	for name, src := range e.sources {
		cp.Sources = append(cp.Sources, SourceCheckpoint{
			Name:             name,
			Lines:            src.lines,
			Bytes:            src.bytes,
			Dups:             src.dups,
			ClockRegressions: src.clockRegs,
			LastEvent:        src.lastEvent,
		})
	}
	sortSourceCheckpoints(cp.Sources)
	return cp
}

func sortSourceCheckpoints(s []SourceCheckpoint) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Resume rebuilds an engine from a checkpoint. cfg supplies the analysis
// settings and static inputs (jobs, downtimes, CPU record) — those are not
// checkpointed; the checkpoint carries only stream state. The coalescer is
// restored with cfg's window, which must match the checkpointed run for the
// resumed output to stay equivalent.
func Resume(cfg Config, cp *Checkpoint) (*Engine, error) {
	if cp == nil {
		return New(cfg)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cp.Horizon != cfg.Horizon {
		return nil, fmt.Errorf("stream: checkpoint horizon %v, config %v", cp.Horizon, cfg.Horizon)
	}
	co, err := coalesce.Restore(cfg.Pipeline.CoalesceWindow, cp.Coalescer.Entries, cp.Coalescer.Raw, cp.Coalescer.Kept)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:          cfg,
		co:           co,
		pending:      append([]xid.Event(nil), cp.Pending...),
		sealed:       append([]xid.Event(nil), cp.Sealed...),
		sealedRaw:    cp.SealedRaw,
		watermark:    cp.Watermark,
		hasWatermark: cp.HasWatermark,
		maxEvent:     cp.MaxEventTime,
		hasMaxEvent:  cp.HasMaxEvent,
		extract:      cp.Extract,
		quarantine: Quarantine{
			Late:    cp.Quarantine.Late,
			Samples: append([]LateEvent(nil), cp.Quarantine.Samples...),
		},
		sources: make(map[string]*sourceState, len(cp.Sources)),
		gen:     cp.Gen,
	}
	for _, src := range cp.Sources {
		e.sources[src.Name] = &sourceState{
			lines:     src.Lines,
			bytes:     src.Bytes,
			dups:      src.Dups,
			clockRegs: src.ClockRegressions,
			lastEvent: src.LastEvent,
		}
	}
	return e, nil
}

// SaveCheckpoint writes the checkpoint atomically: a temp file in the
// target directory, fsynced, then renamed over the destination and the
// directory fsynced, so a crash never leaves a torn checkpoint behind and
// a returned save survives one.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename itself is durable only once the directory is synced.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	return &cp, nil
}
