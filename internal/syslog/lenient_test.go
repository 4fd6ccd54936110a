package syslog_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

var at = time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC)

// record renders one valid Xid line.
func record(i int) string {
	return syslog.FormatLine(xid.Event{
		Time:   at.Add(time.Duration(i) * time.Second),
		Node:   fmt.Sprintf("gpub%03d", i%30+1),
		GPU:    i % 4,
		Code:   xid.MMU,
		Detail: fmt.Sprintf("fault at 0x%08x", i),
	}, 1000+i, "python")
}

// extractLenient runs the lenient extractor and collects the recovered
// events.
func extractLenient(t *testing.T, input []byte, opt syslog.Options) ([]xid.Event, *syslog.IngestionReport, error) {
	t.Helper()
	var events []xid.Event
	opt.Lenient = true
	rep, err := syslog.Extract(bytes.NewReader(input), opt, func(ev xid.Event) error {
		events = append(events, ev)
		return nil
	})
	if rep == nil {
		t.Fatal("nil ingestion report")
	}
	return events, rep, err
}

// TestLenientClassification exercises every taxonomy category once.
func TestLenientClassification(t *testing.T) {
	good := record(1)
	lines := []string{
		good,
		"9999-99-99T99:99:99.000000Z" + good[len("2023-06-01T12:30:46.123456Z"):], // bad timestamp
		// Hex-only garbage so the line still matches the Xid shape but the
		// address inversion fails.
		strings.Replace(
			syslog.FormatLine(xid.Event{Time: at, Node: "n", GPU: 0, Code: xid.MMU, Detail: "d"}, 1, "x"),
			"PCI:0000:07:00", "PCI:dead:beef", 1), // unknown PCI address
		strings.Replace(record(3), ": 31,", ": 9999,", 1), // out-of-range code
		strings.Repeat("x", 10_000),                       // overlong (ceiling 8 KiB)
		"binary \xff\xfe\xfd garbage",                     // non-UTF-8
		syslog.FormatNoise(at, "gpub001", 0),              // noise
		record(4),
	}
	input := []byte(strings.Join(lines, "\n") + "\n")
	events, rep, err := extractLenient(t, input, syslog.Options{MaxLineBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || rep.Records != 2 {
		t.Fatalf("recovered %d records, want 2", len(events))
	}
	want := map[syslog.LineClass]int{
		syslog.ClassBadTimestamp: 1,
		syslog.ClassBadPCIAddr:   1,
		syslog.ClassBadXIDCode:   1,
		syslog.ClassOverlong:     1,
		syslog.ClassNonUTF8:      1,
	}
	for class, n := range want {
		if rep.Bad[class] != n {
			t.Errorf("%v = %d, want %d", class, rep.Bad[class], n)
		}
	}
	if rep.BadTotal != 5 || rep.Noise != 1 || rep.Lines != len(lines) {
		t.Fatalf("report %+v", rep)
	}
	if rep.Records+rep.Noise+rep.BadTotal != rep.Lines {
		t.Fatalf("line accounting broken: %+v", rep)
	}
}

// TestLenientMatchesStrictOnCleanLog: on an undamaged log, lenient mode
// recovers exactly the strict stats and events.
func TestLenientMatchesStrictOnCleanLog(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 500; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
		if i%5 == 0 {
			buf.WriteString(syslog.FormatNoise(at, "gpub001", i))
			buf.WriteByte('\n')
		}
	}
	var strictEvents []xid.Event
	strict, err := syslog.Extract(bytes.NewReader(buf.Bytes()), syslog.Options{}, func(ev xid.Event) error {
		strictEvents = append(strictEvents, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := strict.Stats()
	events, rep, err := extractLenient(t, buf.Bytes(), syslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != st.XIDLines || rep.Noise != st.Skipped || rep.Lines != st.Lines || rep.BadTotal != 0 {
		t.Fatalf("lenient %+v vs strict %+v", rep, st)
	}
	if !reflect.DeepEqual(events, strictEvents) {
		t.Fatal("lenient events differ from strict on a clean log")
	}
}

// TestAbsoluteBudgetFailsFast: exceeding -max-bad-lines fails with a typed
// error naming the dominant category.
func TestAbsoluteBudgetFailsFast(t *testing.T) {
	var buf bytes.Buffer
	bad := strings.Replace(record(0), ": 31,", ": 9999,", 1)
	for i := 0; i < 200; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
		buf.WriteString(bad)
		buf.WriteByte('\n')
	}
	_, rep, err := extractLenient(t, buf.Bytes(), syslog.Options{MaxBadLines: 10})
	var berr *syslog.BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if berr.Kind != syslog.BudgetLines || berr.Dominant != syslog.ClassBadXIDCode {
		t.Fatalf("%+v", berr)
	}
	if !rep.Budget.Exceeded || rep.Budget.Dominant != syslog.ClassBadXIDCode {
		t.Fatalf("budget status %+v", rep.Budget)
	}
	// Fail fast: the scan stops at the eleventh bad line (line 22).
	if rep.Lines != 22 || rep.BadTotal != 11 {
		t.Fatalf("scan did not stop at the budget: %+v", rep)
	}
}

// TestFractionBudget: the whole-stream fraction budget is checked at EOF.
func TestFractionBudget(t *testing.T) {
	var buf bytes.Buffer
	bad := "not-utf8 \xff\xfe line"
	for i := 0; i < 90; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
	}
	for i := 0; i < 10; i++ {
		buf.WriteString(bad)
		buf.WriteByte('\n')
	}
	// 10% bad: a 5% budget fails, a 50% budget passes.
	_, _, err := extractLenient(t, buf.Bytes(), syslog.Options{MaxBadFrac: 0.05})
	var berr *syslog.BudgetError
	if !errors.As(err, &berr) || berr.Kind != syslog.BudgetFraction {
		t.Fatalf("err = %v, want fraction BudgetError", err)
	}
	if berr.Dominant != syslog.ClassNonUTF8 {
		t.Fatalf("dominant = %v", berr.Dominant)
	}
	if _, _, err := extractLenient(t, buf.Bytes(), syslog.Options{MaxBadFrac: 0.5}); err != nil {
		t.Fatalf("50%% budget failed: %v", err)
	}
}

// TestQuarantineBoundedAndNumbered: the sidecar keeps only the first N
// samples per category, with 1-based stream line numbers.
func TestQuarantineBoundedAndNumbered(t *testing.T) {
	var lines []string
	badAt := []int{3, 5, 8, 13, 21, 34} // 1-based positions of bad lines
	pos := map[int]bool{}
	for _, p := range badAt {
		pos[p] = true
	}
	for i := 1; i <= 40; i++ {
		if pos[i] {
			lines = append(lines, strings.Replace(record(i), ": 31,", ": 9999,", 1))
		} else {
			lines = append(lines, record(i))
		}
	}
	input := []byte(strings.Join(lines, "\n") + "\n")
	_, rep, err := extractLenient(t, input, syslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantine) != 4 {
		t.Fatalf("%d quarantined, want 4", len(rep.Quarantine))
	}
	for i, q := range rep.Quarantine {
		if q.Line != badAt[i] || q.Class != syslog.ClassBadXIDCode {
			t.Fatalf("quarantine[%d] = %+v, want line %d", i, q, badAt[i])
		}
		if len(q.Sample) == 0 || len(q.Sample) > 160 {
			t.Fatalf("sample size %d", len(q.Sample))
		}
	}
	if rep.Bad[syslog.ClassBadXIDCode] != len(badAt) {
		t.Fatalf("counted %d, want %d", rep.Bad[syslog.ClassBadXIDCode], len(badAt))
	}
}

// TestOverlongLineDefaultCeiling: a line past the default 4 MiB ceiling,
// spanning many read buffers, is fatal with its line number in strict mode
// and one quarantined overlong line in lenient mode, with every other
// record recovered.
func TestOverlongLineDefaultCeiling(t *testing.T) {
	var buf bytes.Buffer
	before := 0
	for buf.Len() < 1<<20 {
		buf.WriteString(record(before))
		buf.WriteByte('\n')
		before++
	}
	buf.WriteString(strings.Repeat("g", syslog.MaxLineBytes+4096))
	buf.WriteByte('\n')
	buf.WriteString(record(before + 1))
	buf.WriteByte('\n')
	input := buf.Bytes()
	wantLine := before + 1

	_, err := syslog.Extract(bytes.NewReader(input), syslog.Options{}, func(xid.Event) error { return nil })
	wantMsg := fmt.Sprintf("line %d longer than", wantLine)
	if err == nil || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("strict: %v, want mention of %q", err, wantMsg)
	}

	_, rep, err := extractLenient(t, input, syslog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bad[syslog.ClassOverlong] != 1 || rep.Records != before+1 {
		t.Fatalf("lenient recovery wrong: %+v", rep)
	}
	if q := rep.Quarantine[0]; q.Line != wantLine || q.Class != syslog.ClassOverlong || len(q.Sample) != 160 {
		t.Fatalf("quarantine %+v, want overlong line %d", q, wantLine)
	}
}

// TestGPUIndexRejectsMalformedAddresses: the synthetic-address fallback
// must validate the full shape, not scan a prefix.
func TestGPUIndexRejectsMalformedAddresses(t *testing.T) {
	accept := []struct {
		addr string
		want int
	}{
		{"0000:07:00", 0},
		{"0000:E7:00", 7},
		{"0001:AB:00", 0xAB},
		{"0001:ab:00", 0xAB},
		{"0001:00:00", 0},
	}
	for _, tc := range accept {
		got, ok := syslog.GPUIndex(tc.addr)
		if !ok || got != tc.want {
			t.Errorf("GPUIndex(%q) = %d,%v, want %d,true", tc.addr, got, ok, tc.want)
		}
	}
	reject := []string{
		"",
		"0001:07:00garbage", // trailing garbage after a valid prefix
		"0001:7:00",         // short device width
		"0001:ABC:00",       // overlong device field
		"0001:GG:00",        // non-hex device
		"0001:07:01",        // wrong function
		"0001:07:0",         // truncated function
		"0002:07:00",        // unknown domain
		"0001:07",           // truncated address
		" 0001:07:00",       // leading whitespace
		"0001:07:00 ",       // trailing whitespace
		"dead:beef",
	}
	for _, addr := range reject {
		if got, ok := syslog.GPUIndex(addr); ok {
			t.Errorf("GPUIndex(%q) accepted as %d", addr, got)
		}
	}
}

// TestFormatLineStripsCarriageReturns: a lone \r in the detail must not
// survive into the rendered line, and the record must round-trip.
func TestFormatLineStripsCarriageReturns(t *testing.T) {
	ev := xid.Event{
		Time: at, Node: "gpub042", GPU: 2, Code: xid.NVLink,
		Detail: "link 1-2\rCRC failure\r\nretrying",
	}
	line := syslog.FormatLine(ev, 1, "proc")
	if strings.ContainsAny(line, "\r\n") {
		t.Fatalf("control bytes survived into the line: %q", line)
	}
	back, ok, err := syslog.ParseLine(line)
	if !ok || err != nil {
		t.Fatalf("round trip parse failed: ok=%v err=%v", ok, err)
	}
	if back.Detail != "link 1-2 CRC failure  retrying" {
		t.Fatalf("detail = %q", back.Detail)
	}
	if !back.Time.Equal(ev.Time) || back.Node != ev.Node || back.GPU != ev.GPU || back.Code != ev.Code {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

// TestParseLineRejectsOutOfRangeCode: codes beyond the driver's table are
// classified corruption, not new error types.
func TestParseLineRejectsOutOfRangeCode(t *testing.T) {
	good := record(0)
	for _, repl := range []string{": 1024,", ": 99999,", ": 184467440737095516151,"} {
		bad := strings.Replace(good, ": 31,", repl, 1)
		_, _, err := syslog.ParseLine(bad)
		var pe *syslog.ParseError
		if !errors.As(err, &pe) || pe.Class != syslog.ClassBadXIDCode {
			t.Errorf("ParseLine(%q): err = %v, want out-of-range code ParseError", repl, err)
		}
	}
	// The boundary value itself is accepted.
	if _, ok, err := syslog.ParseLine(strings.Replace(good, ": 31,", ": 1023,", 1)); !ok || err != nil {
		t.Fatalf("code 1023 rejected: ok=%v err=%v", ok, err)
	}
}
