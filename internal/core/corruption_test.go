package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// eventKey renders an event for multiset comparison. The fuzzer's reorder
// op relocates intact lines, so recovered events match the surviving subset
// as a multiset, not a sequence (Stage II's stable sort restores a canonical
// order before anything downstream reads them).
func eventKey(ev xid.Event) string {
	return fmt.Sprintf("%s|%s|%d|%d|%s", ev.Time.UTC().Format("2006-01-02T15:04:05.000000Z"),
		ev.Node, ev.GPU, ev.Code, ev.Detail)
}

func multiset(events []xid.Event) map[string]int {
	m := make(map[string]int, len(events))
	for _, ev := range events {
		m[eventKey(ev)]++
	}
	return m
}

// TestCorruptionRecoveryInvariant is the headline robustness guarantee:
// for a seeded fuzzer-corrupted raw log, lenient Stage I recovers 100% of
// the records whose bytes the fuzzer did not touch, and Tables I-III over
// the recovered stream are byte-identical to a clean strict run over the
// surviving subset — at Workers ∈ {1, 4, 16}. Skipped under -short only in
// scale, not in substance.
func TestCorruptionRecoveryInvariant(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.02
	}
	sc := calib.NewScenario(7, scale)

	var rawLogs bytes.Buffer
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:     sc.Cluster,
		Pipeline:    core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
		KeepRawLogs: &rawLogs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobsDB bytes.Buffer
	if err := slurmsim.DumpDB(&jobsDB, out.Truth.Jobs); err != nil {
		t.Fatal(err)
	}

	corrupted, fuzzRep, err := logfuzz.Corrupt(rawLogs.Bytes(), logfuzz.Config{
		Seed:          1337,
		Rate:          0.03,
		OversizeBytes: 64 << 10, // memory-sane: inserted junk, not overlong
		Parses: func(line []byte) bool {
			_, ok, err := syslog.ParseLine(string(line))
			return ok && err == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	surviving := logfuzz.Surviving(rawLogs.Bytes(), fuzzRep)
	if len(fuzzRep.Touched) == 0 || len(surviving) == len(rawLogs.Bytes()) {
		t.Fatalf("fuzzer touched nothing (%d lines); test is vacuous", fuzzRep.TotalLines)
	}
	t.Logf("fuzzer: %d lines, %d touched, %d moved, %d inserted",
		fuzzRep.TotalLines, len(fuzzRep.Touched), len(fuzzRep.Moved), fuzzRep.Inserted)

	// Ground truth: strict extraction and rendering over the surviving
	// subset of the clean log.
	cleanEvents, _, err := core.ExtractEvents(bytes.NewReader(surviving))
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := multiset(cleanEvents)
	wantTables := renderTables(t, surviving, jobsDB.Bytes(), core.PipelineConfig{})

	events, ingest, err := core.ExtractEventsLenient(bytes.NewReader(corrupted), syslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := multiset(events); !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("recovered %d events, want the %d surviving records exactly",
			len(events), len(cleanEvents))
	}
	if ingest.BadTotal == 0 {
		t.Fatal("corruption produced no bad lines; test is vacuous")
	}

	for _, workers := range []int{1, 4, 16} {
		lcfg := core.PipelineConfig{Lenient: true, Workers: workers}
		if got := renderTables(t, corrupted, jobsDB.Bytes(), lcfg); got != wantTables {
			t.Errorf("workers=%d: lenient tables diverge from the clean surviving run:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, wantTables)
		}
	}
}

// renderTables runs AnalyzeLogs with the given lenient/worker overrides and
// renders Tables I-III.
func renderTables(t *testing.T, logs, jobsDB []byte, override core.PipelineConfig) string {
	t.Helper()
	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	cfg.Lenient = override.Lenient
	cfg.Workers = override.Workers
	res, err := core.AnalyzeLogs(bytes.NewReader(logs), bytes.NewReader(jobsDB),
		nil, workload.CPURecord{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Lenient && res.Ingestion == nil {
		t.Fatal("lenient run did not surface an ingestion report")
	}
	if !cfg.Lenient && res.Ingestion != nil {
		t.Fatal("strict run unexpectedly produced an ingestion report")
	}
	var buf bytes.Buffer
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return report.WriteTableI(b, res) },
		func(b *bytes.Buffer) error { return report.WriteTableII(b, res) },
		func(b *bytes.Buffer) error { return report.WriteTableIII(b, res) },
	} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}
