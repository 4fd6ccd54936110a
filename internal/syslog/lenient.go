package syslog

import "fmt"

// LineClass is the corruption taxonomy of lenient Stage I: every line that
// looks like an Xid record but cannot be parsed — or cannot be read at all —
// lands in exactly one class. Lines that do not look like Xid records and
// read cleanly are noise, not corruption (the extractor cannot tell damaged
// foreign lines from ordinary kernel chatter).
type LineClass int

const (
	// ClassBadTimestamp: the Xid shape matched but the timestamp field does
	// not parse as the consolidated-log layout.
	ClassBadTimestamp LineClass = iota
	// ClassBadPCIAddr: the PCI address is not a known GPU slot and not a
	// well-formed synthetic address.
	ClassBadPCIAddr
	// ClassBadXIDCode: the code field is not an integer in [0, maxXIDCode].
	ClassBadXIDCode
	// ClassOverlong: the physical line exceeds the line-length ceiling; the
	// excess bytes are discarded up to the next newline.
	ClassOverlong
	// ClassNonUTF8: the line is not valid UTF-8 — binary garbage from a torn
	// or interleaved write, not a log line at all.
	ClassNonUTF8

	// NumLineClasses sizes per-class count arrays.
	NumLineClasses = int(ClassNonUTF8) + 1
)

// String returns the human-readable category label used in reports.
func (c LineClass) String() string {
	switch c {
	case ClassBadTimestamp:
		return "unparseable timestamp"
	case ClassBadPCIAddr:
		return "unknown PCI address"
	case ClassBadXIDCode:
		return "out-of-range XID code"
	case ClassOverlong:
		return "overlong line"
	case ClassNonUTF8:
		return "non-UTF-8 bytes"
	default:
		return fmt.Sprintf("LineClass(%d)", int(c))
	}
}

// ParseError is the typed field-parse failure ParseLine returns for lines
// that match the Xid shape but carry a corrupt field. The message renders
// lazily in Error() — the classifiers on the hot path only ever read
// Class, so a malformed line costs the field copy, not a fmt.Sprintf.
type ParseError struct {
	Class LineClass // the corruption category the line falls in
	field string    // raw text of the offending field
	cause error
}

// Error implements error.
func (e *ParseError) Error() string {
	var what string
	switch e.Class {
	case ClassBadTimestamp:
		what = "bad timestamp"
	case ClassBadPCIAddr:
		what = "unknown PCI address"
	case ClassBadXIDCode:
		what = "bad code"
	default:
		what = "bad field"
	}
	msg := fmt.Sprintf("syslog: %s %q", what, e.field)
	if e.cause != nil {
		return msg + ": " + e.cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying parse failure, when any.
func (e *ParseError) Unwrap() error { return e.cause }

// Lenient-mode quarantine sizing.
const (
	// quarantinePerClass bounds the sidecar sample per category.
	quarantinePerClass = 4
	// quarantineSampleBytes truncates each quarantined line sample.
	quarantineSampleBytes = 160
)

// Quarantined is one corrupt line retained as evidence: its 1-based line
// number in the stream, its category, and a truncated sample of its bytes.
type Quarantined struct {
	Line   int       // 1-based line number in the scanned stream
	Class  LineClass // the corruption category
	Sample string    // truncated raw bytes, for forensics
}

// BudgetStatus records the error-budget configuration and outcome inside an
// IngestionReport.
type BudgetStatus struct {
	MaxBadLines int     // absolute corrupt-line budget, 0 = unlimited
	MaxBadFrac  float64 // fractional corrupt-line budget, 0 = unlimited
	// Exceeded is true when the run failed on a budget; Dominant then names
	// the corruption category with the highest count.
	Exceeded bool
	Dominant LineClass // see Exceeded
}

// IngestionReport is the structured outcome of a Stage I run: what was
// scanned, what was recovered, and — in lenient mode — what was
// quarantined. After a budget or callback failure it reflects the state at
// the abort point.
type IngestionReport struct {
	// Lines is the total number of physical lines scanned (overlong lines
	// count once).
	Lines int
	// Records is how many Xid records were extracted.
	Records int
	// Noise is how many well-formed non-Xid lines were skipped.
	Noise int
	// Bad counts corrupt lines per category, indexed by LineClass.
	Bad [NumLineClasses]int
	// BadTotal is the sum over Bad.
	BadTotal int
	// Quarantine holds up to four samples per category, in stream order.
	Quarantine []Quarantined
	Budget     BudgetStatus // budget configuration and outcome
}

// BadFrac returns the corrupt-line fraction of the scanned stream.
func (r *IngestionReport) BadFrac() float64 {
	if r.Lines == 0 {
		return 0
	}
	return float64(r.BadTotal) / float64(r.Lines)
}

// Stats projects the report onto the strict-mode stat shape (corrupt lines
// count as malformed), so downstream summaries read the same in either mode.
func (r *IngestionReport) Stats() ExtractStats {
	return ExtractStats{
		Lines:     r.Lines,
		XIDLines:  r.Records,
		Skipped:   r.Noise,
		Malformed: r.BadTotal,
	}
}

// Dominant returns the corruption category with the highest count and that
// count (ties break toward the lower class). The count is 0 on a clean run.
func (r *IngestionReport) Dominant() (LineClass, int) {
	best, n := ClassBadTimestamp, r.Bad[ClassBadTimestamp]
	for c := 1; c < NumLineClasses; c++ {
		if r.Bad[c] > n {
			best, n = LineClass(c), r.Bad[c]
		}
	}
	return best, n
}

// BudgetKind distinguishes the two error budgets.
type BudgetKind int

const (
	// BudgetLines is the absolute bad-line budget (fails fast mid-stream).
	BudgetLines BudgetKind = iota
	// BudgetFraction is the whole-stream bad-fraction budget (checked at EOF).
	BudgetFraction
)

// String names the budget kind.
func (k BudgetKind) String() string {
	if k == BudgetFraction {
		return "fraction"
	}
	return "lines"
}

// BudgetError reports a log too corrupt to trust: one of the error budgets
// was exceeded. It names the dominant corruption category so the caller can
// tell a truncated transfer (overlong/non-UTF-8) from clock damage.
type BudgetError struct {
	Kind     BudgetKind // which budget tripped (absolute or fractional)
	BadTotal int        // corrupt lines seen when the budget tripped
	Lines    int        // total lines scanned at that point
	Limit    float64    // MaxBadLines or MaxBadFrac, depending on Kind
	Dominant LineClass  // highest-count corruption category
}

// Error implements error.
func (e *BudgetError) Error() string {
	switch e.Kind {
	case BudgetFraction:
		return fmt.Sprintf(
			"syslog: log too corrupt: %d of %d lines bad (%.2f%% > budget %.2f%%), dominant category: %s",
			e.BadTotal, e.Lines, 100*float64(e.BadTotal)/float64(e.Lines), 100*e.Limit, e.Dominant)
	default:
		return fmt.Sprintf(
			"syslog: log too corrupt: %d bad lines exceed budget of %d, dominant category: %s",
			e.BadTotal, int(e.Limit), e.Dominant)
	}
}

// sampleOf truncates a corrupt line to its quarantine sample.
func sampleOf(line []byte) string {
	return string(truncateSample(line))
}

// truncateSample bounds a line to the quarantine sample size.
func truncateSample(line []byte) []byte {
	if len(line) > quarantineSampleBytes {
		line = line[:quarantineSampleBytes]
	}
	return line
}

// trimCR drops one trailing carriage return, mirroring bufio.ScanLines so
// CR-LF logs classify the same as LF logs.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// reportState accumulates an IngestionReport plus the per-class quarantine
// fill levels (which are not part of the report itself).
type reportState struct {
	rep     IngestionReport
	qn      [NumLineClasses]int
	lenient bool
}

// newReportState starts a report under opt. The error budgets are a
// lenient-mode setting; a strict report carries none.
func newReportState(opt Options) *reportState {
	s := &reportState{lenient: opt.Lenient}
	if opt.Lenient {
		s.rep.Budget = BudgetStatus{MaxBadLines: opt.MaxBadLines, MaxBadFrac: opt.MaxBadFrac}
	}
	return s
}

// bad records one corrupt line — the report's latest line — and returns a
// *BudgetError when the absolute budget is now exceeded. Strict mode only
// counts it: no quarantine sample, no budget.
func (s *reportState) bad(class LineClass, line []byte) error {
	s.rep.Bad[class]++
	s.rep.BadTotal++
	if !s.lenient {
		return nil
	}
	s.quarantine(Quarantined{Line: s.rep.Lines, Class: class, Sample: sampleOf(line)})
	return s.checkAbs()
}

// quarantine keeps q when its category still has room.
func (s *reportState) quarantine(q Quarantined) {
	if s.qn[q.Class] < quarantinePerClass {
		s.qn[q.Class]++
		s.rep.Quarantine = append(s.rep.Quarantine, q)
	}
}

// checkAbs enforces the absolute bad-line budget.
func (s *reportState) checkAbs() error {
	if b := s.rep.Budget.MaxBadLines; b > 0 && s.rep.BadTotal > b {
		return s.fail(BudgetLines)
	}
	return nil
}

// finish runs the end-of-stream fractional budget check.
func (s *reportState) finish() error {
	if b := s.rep.Budget.MaxBadFrac; b > 0 && s.rep.BadFrac() > b {
		return s.fail(BudgetFraction)
	}
	return nil
}

// fail marks the budget as exceeded and builds the typed error.
func (s *reportState) fail(kind BudgetKind) error {
	dom, _ := s.rep.Dominant()
	s.rep.Budget.Exceeded = true
	s.rep.Budget.Dominant = dom
	limit := float64(s.rep.Budget.MaxBadLines)
	if kind == BudgetFraction {
		limit = s.rep.Budget.MaxBadFrac
	}
	return &BudgetError{
		Kind:     kind,
		BadTotal: s.rep.BadTotal,
		Lines:    s.rep.Lines,
		Limit:    limit,
		Dominant: dom,
	}
}

// MergeReports folds the lenient reports of consecutive streams, in stream
// order, into the report of their concatenation: counts sum, quarantine
// samples keep the per-category bound with line numbers rebased, and opt's
// error budgets are enforced over the merged totals. A failure is the
// *BudgetError a single-stream run over the concatenation would return;
// the merged report comes back either way.
func MergeReports(reports []*IngestionReport, opt Options) (*IngestionReport, error) {
	opt.Lenient = true
	s := newReportState(opt)
	for _, r := range reports {
		for _, q := range r.Quarantine {
			q.Line += s.rep.Lines
			s.quarantine(q)
		}
		s.rep.Lines += r.Lines
		s.rep.Records += r.Records
		s.rep.Noise += r.Noise
		for c, n := range r.Bad {
			s.rep.Bad[c] += n
		}
		s.rep.BadTotal += r.BadTotal
	}
	if err := s.checkAbs(); err != nil {
		return &s.rep, err
	}
	return &s.rep, s.finish()
}
