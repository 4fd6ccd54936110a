package syslog

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/xid"
)

// fuzzSeeds returns corpus inputs for FuzzExtract: clean formatted logs plus
// deterministic fuzzer-damaged variants of them, so the mutator starts from
// realistic corruption shapes rather than raw noise.
func fuzzSeeds(f *testing.F) [][]byte {
	at := time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC)
	var clean bytes.Buffer
	for i := 0; i < 50; i++ {
		clean.WriteString(FormatLine(xid.Event{
			Time:   at.Add(time.Duration(i) * time.Second),
			Node:   fmt.Sprintf("gpub%03d", i%30+1),
			GPU:    i % 4,
			Code:   xid.MMU,
			Detail: fmt.Sprintf("fault at 0x%08x", i),
		}, 1000+i, "python"))
		clean.WriteByte('\n')
		if i%7 == 0 {
			clean.WriteString(FormatNoise(at, "gpub002", i))
			clean.WriteByte('\n')
		}
	}
	seeds := [][]byte{
		nil,
		[]byte("\n"),
		[]byte("no newline at end"),
		clean.Bytes(),
	}
	for _, seed := range []uint64{1, 2, 3} {
		damaged, _, err := logfuzz.Corrupt(clean.Bytes(), logfuzz.Config{
			Seed: seed, Rate: 0.2, OversizeBytes: 8 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, damaged)
	}
	return seeds
}

// Fuzz sizing: inputs past a few read buffers add nothing, and a small line
// ceiling puts overlong lines within the mutator's reach.
const (
	fuzzMaxInput = 1 << 20
	fuzzMaxLine  = 512
)

// FuzzExtract holds Extract to the historical sequential scanners on
// arbitrary bytes, in both modes: events, counts, interner totals, the
// lenient report (quarantine and budget outcome included) and the error
// text must all match exactly, and nothing may panic.
func FuzzExtract(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, lenient := range []bool{false, true} {
		for _, s := range seeds {
			f.Add(s, lenient)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, lenient bool) {
		if len(data) > fuzzMaxInput {
			return
		}
		opt := Options{Lenient: lenient, MaxLineBytes: fuzzMaxLine}
		if lenient {
			opt.MaxBadLines, opt.MaxBadFrac = 16, 0.5
		}
		var got, want []xid.Event
		var gotAlloc, wantAlloc intern.Stats
		opt.Alloc = &gotAlloc
		rep, err := Extract(bytes.NewReader(data), opt, func(ev xid.Event) error {
			got = append(got, ev)
			return nil
		})
		collect := func(ev xid.Event) error {
			want = append(want, ev)
			return nil
		}
		var wantErr error
		if lenient {
			var wantRep *IngestionReport
			wantRep, wantErr = oracleExtractLenient(bytes.NewReader(data), opt, &wantAlloc, collect)
			if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("lenient reports diverge:\n got %+v\nwant %+v", rep, wantRep)
			}
			if err == nil && rep.Records+rep.Noise+rep.BadTotal != rep.Lines {
				t.Fatalf("line accounting broken: %+v", rep)
			}
		} else {
			var wantSt ExtractStats
			wantSt, wantErr = oracleExtractStrict(bytes.NewReader(data), fuzzMaxLine, &wantAlloc, collect)
			if rep.Stats() != wantSt {
				t.Fatalf("strict stats diverge: got %+v, want %+v", rep.Stats(), wantSt)
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("errors diverge: got %v, want %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("events diverge: %d vs %d", len(got), len(want))
		}
		if gotAlloc != wantAlloc {
			t.Fatalf("interner totals diverge: %+v vs %+v", gotAlloc, wantAlloc)
		}
	})
}
