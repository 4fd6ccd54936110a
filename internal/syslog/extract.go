package syslog

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"unicode/utf8"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// Options configures Stage I extraction. The zero value is strict mode with
// the default line-length ceiling.
type Options struct {
	// Lenient switches to corruption-tolerant extraction: instead of
	// treating a damaged line as fatal, Extract classifies the damage
	// (LineClass), quarantines a bounded sample, and keeps scanning — until
	// an error budget says the log as a whole cannot be trusted.
	Lenient bool
	// MaxBadLines is lenient mode's absolute error budget: once more than
	// this many lines have been classified as corrupt, extraction fails
	// fast with a *BudgetError. 0 disables the absolute budget.
	MaxBadLines int
	// MaxBadFrac is lenient mode's fractional error budget, evaluated over
	// the whole stream at EOF (a running fraction is not monotone, so it is
	// never checked mid-stream). 0 disables it.
	MaxBadFrac float64
	// MaxLineBytes overrides the line-length ceiling, mainly for tests.
	// 0 means MaxLineBytes (4 MiB). Strict mode fails on a line that does
	// not fit in it together with its newline; lenient mode quarantines a
	// line longer than it as ClassOverlong.
	MaxLineBytes int
	// Alloc, when non-nil, accumulates the run's interner hit/miss/byte
	// totals.
	Alloc *intern.Stats
}

// Extract is the pipeline's Stage I: it streams raw log lines from r,
// parses the Xid records, and calls fn for each in stream order.
//
// Strict mode (the default) counts Xid-shaped lines with corrupt fields as
// malformed and skips them; an overlong line or a read failure is fatal,
// with its line number. Lenient mode additionally tolerates overlong lines
// and non-UTF-8 bytes, quarantines a bounded sample of every corrupt line,
// and enforces opt's error budgets.
//
// The scan parses straight off the read buffer — no per-line copy, even for
// skipped noise lines — and runs one whole-stream interner, so repeated
// node names and details cost a single allocation each. The returned
// report is always non-nil, including alongside an error; Stats projects
// it onto the strict-mode counts.
func Extract(r io.Reader, opt Options, fn func(xid.Event) error) (*IngestionReport, error) {
	max := opt.MaxLineBytes
	if max <= 0 {
		max = MaxLineBytes
	}
	limit := max
	if !opt.Lenient {
		// The strict ceiling counts the newline, as bufio.Scanner's does.
		limit = max - 1
	}
	st := newReportState(opt)
	in := internerPool.Get().(*intern.Interner)
	defer releaseInterner(in, opt.Alloc)
	lr := lineReader{br: bufio.NewReaderSize(r, readBufBytes)}
	for {
		line, overlong, err := lr.next(limit)
		if err == io.EOF {
			break
		}
		if err != nil {
			return &st.rep, fmt.Errorf("syslog: read failed at line %d: %w", st.rep.Lines+1, err)
		}
		if overlong && !opt.Lenient {
			return &st.rep, fmt.Errorf("syslog: line %d longer than %d bytes (corrupt log?): %w",
				st.rep.Lines+1, max, bufio.ErrTooLong)
		}
		st.rep.Lines++
		class := ClassOverlong
		if !overlong {
			line = trimCR(line)
			ev, ok, perr := parseLineBytes(line, in)
			switch {
			case perr != nil:
				class = ClassBadTimestamp
				if pe, isPE := perr.(*ParseError); isPE {
					class = pe.Class
				}
			case ok:
				st.rep.Records++
				if err := fn(ev); err != nil {
					return &st.rep, err
				}
				continue
			case opt.Lenient && !utf8.Valid(line):
				// A well-shaped record is accepted even if its detail
				// carries damaged bytes; an unreadable non-record is
				// corruption, not noise.
				class = ClassNonUTF8
			default:
				st.rep.Noise++
				continue
			}
		}
		if err := st.bad(class, line); err != nil {
			return &st.rep, err
		}
	}
	return &st.rep, st.finish()
}

// lineReader splits a stream into physical lines with the newline
// stripped, like bufio.ScanLines, but hands a line past the ceiling back as
// its quarantine sample instead of failing, so lenient mode can skip it.
type lineReader struct {
	br   *bufio.Reader
	long []byte // reassembles lines longer than br's buffer; reused
}

// next returns the next line. A line longer than limit bytes comes back as
// its sample-sized prefix with overlong set, the rest discarded up to the
// next newline. err is io.EOF once the stream is exhausted. The line
// aliases reader-owned memory and is valid until the next call.
func (lr *lineReader) next(limit int) (line []byte, overlong bool, err error) {
	frag, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], frag...)
		for err == bufio.ErrBufferFull && len(lr.long) <= limit {
			frag, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, frag...)
		}
		frag = lr.long
		if err == bufio.ErrBufferFull {
			// Past the ceiling with no newline yet: drop the rest.
			for err == bufio.ErrBufferFull {
				_, err = lr.br.ReadSlice('\n')
			}
			if err != nil && err != io.EOF {
				return nil, false, err
			}
			return truncateSample(frag), true, nil
		}
	}
	if err != nil && (err != io.EOF || len(frag) == 0) {
		return nil, false, err
	}
	if n := len(frag); frag[n-1] == '\n' {
		frag = frag[:n-1]
	}
	if len(frag) > limit {
		return truncateSample(frag), true, nil
	}
	return frag, false, nil
}

// internerPool recycles Stage I interners across runs. Every interner goes
// back Reset, so a Get behaves exactly like intern.New() and the hit/miss
// totals depend only on the input bytes.
var internerPool = sync.Pool{New: func() any { return intern.New() }}

// releaseInterner harvests the interner's stats into alloc (nil-safe) and
// returns it, reset, to the pool.
func releaseInterner(in *intern.Interner, alloc *intern.Stats) {
	if alloc != nil {
		alloc.Add(in.Stats())
	}
	in.Reset()
	internerPool.Put(in)
}
