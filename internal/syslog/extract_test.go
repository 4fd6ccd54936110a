package syslog

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/xid"
)

// buildLog emits a messy raw log — duplicates, noise, malformed lines — and
// returns the bytes.
func buildLog(t *testing.T, events int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, DefaultWriterConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError}
	for i := 0; i < events; i++ {
		ev := xid.Event{
			Time:   base.Add(time.Duration(i) * 7 * time.Second),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[i%3],
			GPU:    i % 4,
			Code:   codes[i%len(codes)],
			Detail: "detail",
		}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 { // sprinkle malformed Xid-shaped lines
			buf.WriteString("2023-06-01T00:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:dead:beef): 31, pid=1, name=x, d\n")
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Property: on a messy log, with and without a trailing newline, strict
// Extract yields the oracle scanner's event sequence, stats and interner
// totals.
func TestExtractMatchesOracle(t *testing.T) {
	data := buildLog(t, 3000, 1)
	for _, trim := range []bool{false, true} {
		in := data
		if trim {
			in = bytes.TrimSuffix(in, []byte{'\n'})
		}
		var want, got []xid.Event
		var wantAlloc, gotAlloc intern.Stats
		wantStats, err := oracleExtractStrict(bytes.NewReader(in), MaxLineBytes, &wantAlloc, func(ev xid.Event) error {
			want = append(want, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Extract(bytes.NewReader(in), Options{Alloc: &gotAlloc}, func(ev xid.Event) error {
			got = append(got, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats() != wantStats || gotAlloc != wantAlloc {
			t.Fatalf("trim=%v: stats %+v alloc %+v, want %+v %+v", trim, rep.Stats(), gotAlloc, wantStats, wantAlloc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trim=%v: events diverge from the oracle", trim)
		}
	}
}

// TestLenientMatchesOracleUnderCorruption: for a fuzzer-damaged log, the
// lenient report, recovered events and interner totals equal the oracle
// scanner's.
func TestLenientMatchesOracleUnderCorruption(t *testing.T) {
	corrupted, _, err := logfuzz.Corrupt(buildLog(t, 2000, 5), logfuzz.Config{
		Seed: 42, Rate: 0.05, OversizeBytes: 16 << 10,
		Parses: func(line []byte) bool {
			_, ok, err := ParseLine(string(line))
			return ok && err == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Lenient: true, MaxLineBytes: 8 << 10}
	var want, got []xid.Event
	var wantAlloc, gotAlloc intern.Stats
	wantRep, err := oracleExtractLenient(bytes.NewReader(corrupted), opt, &wantAlloc, func(ev xid.Event) error {
		want = append(want, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.BadTotal == 0 || wantRep.Bad[ClassOverlong] == 0 {
		t.Fatalf("corruption produced no bad or overlong lines; test is vacuous: %+v", wantRep)
	}
	opt.Alloc = &gotAlloc
	rep, err := Extract(bytes.NewReader(corrupted), opt, func(ev xid.Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, wantRep) || gotAlloc != wantAlloc {
		t.Fatalf("report diverges from the oracle:\n got %+v %+v\nwant %+v %+v", rep, gotAlloc, wantRep, wantAlloc)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("events diverge from the oracle")
	}
}

// TestExtractCeilingMatchesOracle pins the line-length ceiling to the
// oracles' byte-exact semantics — strict counts the newline, lenient does
// not — for lines around the ceiling, terminated or not, LF or CR-LF, and
// for lines longer than the read buffer.
func TestExtractCeilingMatchesOracle(t *testing.T) {
	const max = 100
	for _, n := range []int{max - 2, max - 1, max, max + 1, readBufBytes + 7} {
		for _, end := range []string{"\n", "\r\n", ""} {
			input := "first\n" + strings.Repeat("z", n) + end
			for _, lenient := range []bool{false, true} {
				opt := Options{Lenient: lenient, MaxLineBytes: max}
				rep, err := Extract(strings.NewReader(input), opt, discard)
				var want any
				var wantErr error
				var alloc intern.Stats
				if lenient {
					want, wantErr = oracleExtractLenient(strings.NewReader(input), opt, &alloc, discard)
				} else {
					want, wantErr = oracleExtractStrict(strings.NewReader(input), max, &alloc, discard)
				}
				var got any = rep
				if !lenient {
					got = rep.Stats()
				}
				if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("len=%d end=%q lenient=%v: got %+v, %v; want %+v, %v",
						n, end, lenient, got, err, want, wantErr)
				}
			}
		}
	}
}

// Regression: a pathological unterminated line must fail loudly with its
// line number, not stall or silently truncate the scan.
func TestExtractRejectsOverlongLine(t *testing.T) {
	good := FormatLine(xid.Event{
		Time: time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "d",
	}, 1, "p")
	input := good + "\n" + strings.Repeat("A", MaxLineBytes+1) + "\n" + good + "\n"

	_, err := Extract(strings.NewReader(input), Options{}, discard)
	if err == nil {
		t.Fatal("Extract accepted an overlong line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line context: %v", err)
	}
}

// A failing reader surfaces its error with line context instead of being
// swallowed, in either mode.
func TestExtractReadErrorContext(t *testing.T) {
	brokenAfter := FormatLine(xid.Event{
		Time: time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "d",
	}, 1, "p") + "\n"
	fail := errors.New("disk gone")
	for _, lenient := range []bool{false, true} {
		_, err := Extract(&failingReader{data: []byte(brokenAfter), err: fail}, Options{Lenient: lenient}, discard)
		if !errors.Is(err, fail) {
			t.Fatalf("lenient=%v: err = %v, want wrapped disk error", lenient, err)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("lenient=%v: error lacks line context: %v", lenient, err)
		}
	}
}

func discard(xid.Event) error { return nil }

// failingReader yields its data, then an error.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
