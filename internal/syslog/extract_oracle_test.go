package syslog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// This file preserves the two sequential Stage I scanners that Extract's
// single line loop replaced — the strict bufio.Scanner pass and the lenient
// ReadSlice pass — as differential-test oracles. FuzzExtract holds Extract
// to them in both modes.

// oracleExtractStrict is the historical strict scan, parameterized by the
// line ceiling: it parses straight off sc.Bytes() with one whole-stream
// interner.
func oracleExtractStrict(r io.Reader, max int, alloc *intern.Stats, fn func(xid.Event) error) (ExtractStats, error) {
	var st ExtractStats
	in := intern.New()
	defer func() { alloc.Add(in.Stats()) }()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(readBufBytes, max)), max)
	for sc.Scan() {
		st.Lines++
		ev, ok, err := parseLineBytes(sc.Bytes(), in)
		if err != nil {
			st.Malformed++
			continue
		}
		if !ok {
			st.Skipped++
			continue
		}
		st.XIDLines++
		if err := fn(ev); err != nil {
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return st, fmt.Errorf("syslog: line %d longer than %d bytes (corrupt log?): %w",
				st.Lines+1, max, err)
		}
		return st, fmt.Errorf("syslog: read failed at line %d: %w", st.Lines+1, err)
	}
	return st, nil
}

// oracleReport is the historical lenient report bookkeeping.
type oracleReport struct {
	rep IngestionReport
	qn  [NumLineClasses]int
	opt Options
}

func (s *oracleReport) bad(class LineClass, sample string) error {
	s.rep.Bad[class]++
	s.rep.BadTotal++
	if s.qn[class] < 4 {
		s.qn[class]++
		s.rep.Quarantine = append(s.rep.Quarantine, Quarantined{
			Line: s.rep.Lines, Class: class, Sample: sample,
		})
	}
	if s.opt.MaxBadLines > 0 && s.rep.BadTotal > s.opt.MaxBadLines {
		return s.fail(BudgetLines, float64(s.opt.MaxBadLines))
	}
	return nil
}

func (s *oracleReport) fail(kind BudgetKind, limit float64) error {
	dom, _ := s.rep.Dominant()
	s.rep.Budget.Exceeded = true
	s.rep.Budget.Dominant = dom
	return &BudgetError{Kind: kind, BadTotal: s.rep.BadTotal, Lines: s.rep.Lines, Limit: limit, Dominant: dom}
}

// oracleExtractLenient is the historical lenient scan. opt.MaxLineBytes
// must be resolved (positive).
func oracleExtractLenient(r io.Reader, opt Options, alloc *intern.Stats, fn func(xid.Event) error) (*IngestionReport, error) {
	st := &oracleReport{opt: opt}
	st.rep.Budget = BudgetStatus{MaxBadLines: opt.MaxBadLines, MaxBadFrac: opt.MaxBadFrac}
	in := intern.New()
	defer func() { alloc.Add(in.Stats()) }()
	br := bufio.NewReaderSize(r, readBufBytes)
	for {
		line, overlong, err := oracleReadLine(br, opt.MaxLineBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			return &st.rep, fmt.Errorf("syslog: read failed at line %d: %w", st.rep.Lines+1, err)
		}
		st.rep.Lines++
		if overlong {
			if berr := st.bad(ClassOverlong, sampleOf(line)); berr != nil {
				return &st.rep, berr
			}
			continue
		}
		line = trimCR(line)
		ev, ok, perr := parseLineBytes(line, in)
		switch {
		case perr != nil:
			var pe *ParseError
			class := ClassBadTimestamp
			if errors.As(perr, &pe) {
				class = pe.Class
			}
			if berr := st.bad(class, sampleOf(line)); berr != nil {
				return &st.rep, berr
			}
		case ok:
			st.rep.Records++
			if err := fn(ev); err != nil {
				return &st.rep, err
			}
		case !utf8.Valid(line):
			if berr := st.bad(ClassNonUTF8, sampleOf(line)); berr != nil {
				return &st.rep, berr
			}
		default:
			st.rep.Noise++
		}
	}
	if opt.MaxBadFrac > 0 && st.rep.BadFrac() > opt.MaxBadFrac {
		return &st.rep, st.fail(BudgetFraction, opt.MaxBadFrac)
	}
	return &st.rep, nil
}

// oracleReadLine is the historical lenient line reader: the next physical
// line (newline stripped), or its sample-sized prefix with overlong set
// when it exceeds max bytes, the rest discarded.
func oracleReadLine(br *bufio.Reader, max int) (line []byte, overlong bool, err error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		switch err {
		case nil, io.EOF:
			complete := len(buf) > 0 && buf[len(buf)-1] == '\n'
			if complete {
				buf = buf[:len(buf)-1]
			}
			if err == io.EOF && len(buf) == 0 && !complete {
				return nil, false, io.EOF
			}
			if len(buf) > max {
				return truncateSample(buf), true, nil
			}
			return buf, false, nil
		case bufio.ErrBufferFull:
			if len(buf) > max {
				sample := truncateSample(buf)
				for {
					switch _, err := br.ReadSlice('\n'); err {
					case nil, io.EOF:
						return sample, true, nil
					case bufio.ErrBufferFull:
					default:
						return nil, false, err
					}
				}
			}
		default:
			return nil, false, err
		}
	}
}
