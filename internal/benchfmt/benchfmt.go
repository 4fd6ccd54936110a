// Package benchfmt parses `go test -bench` output into a comparable,
// JSON-serializable form and gates one run against another. It is the
// repository's dependency-free stand-in for benchstat: the bench-json make
// target snapshots a run as BENCH_baseline.json, and the CI perf job fails
// when a later run regresses past the configured ratios.
//
// Comparison semantics are deliberately simpler than benchstat's: repeated
// runs of one benchmark (-count=N) collapse to per-metric medians, and a
// gate trips on the median ratio, not a significance test. Allocation
// metrics are machine-independent, so their gate can be tight; time gates
// must absorb machine-to-machine variance and stay loose.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated metrics. Zero-valued metrics were
// absent from the run (e.g. no -benchmem, no SetBytes).
type Result struct {
	Name        string  `json:"name"`                    // benchmark name, GOMAXPROCS suffix stripped
	Runs        int     `json:"runs"`                    // b.N iterations aggregated across lines
	NsPerOp     float64 `json:"ns_per_op"`               // mean wall time per operation
	MBPerS      float64 `json:"mb_per_s,omitempty"`      // throughput when SetBytes was used
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`  // heap bytes per op (-benchmem)
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"` // heap allocations per op (-benchmem)
}

// Set is a parsed benchmark run, ordered by first appearance.
type Set struct {
	Benchmarks []Result `json:"benchmarks"` // in first-appearance order
}

// gomaxprocsSuffix is the "-N" GOMAXPROCS tag the testing package appends to
// benchmark names (absent when GOMAXPROCS=1). Stripping it makes runs from
// machines with different core counts comparable. Sub-benchmark names that
// end in a dash-number of their own would be ambiguous; this repository's
// sub-benchmarks use "key=value" forms, which are safe.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output. Repeated occurrences of one
// benchmark (from -count) are collapsed to per-metric medians.
func Parse(r io.Reader) (*Set, error) {
	type sample struct {
		ns, mbs, bytes, allocs []float64
	}
	order := []string{}
	samples := map[string]*sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // "BenchmarkFoo ..." status line, not a result row
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		s := samples[name]
		if s == nil {
			s = &sample{}
			samples[name] = s
			order = append(order, name)
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: line %d: bad value %q: %w", lineNo, f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "MB/s":
				s.mbs = append(s.mbs, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	set := &Set{}
	for _, name := range order {
		s := samples[name]
		set.Benchmarks = append(set.Benchmarks, Result{
			Name:        name,
			Runs:        len(s.ns),
			NsPerOp:     median(s.ns),
			MBPerS:      median(s.mbs),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
		})
	}
	if len(set.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark results in input")
	}
	return set, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Lookup returns the named result.
func (s *Set) Lookup(name string) (Result, bool) {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Result{}, false
}

// Delta is one benchmark's base-to-current comparison. Ratios are
// current/base; a ratio is 1 when the base metric is 0 and the current
// metric is too, and +Inf when only the base is 0.
type Delta struct {
	Name       string  // benchmark name shared by both runs
	Base, Cur  Result  // the two runs being compared
	TimeRatio  float64 // Cur.NsPerOp / Base.NsPerOp
	AllocRatio float64 // Cur.AllocsPerOp / Base.AllocsPerOp
	BytesRatio float64 // Cur.BytesPerOp / Base.BytesPerOp
	// Violation names the gate the delta tripped, empty when within bounds.
	Violation string
}

// Compare gates cur against base: time may grow to maxTimeRatio x, and
// allocs/op and B/op to maxAllocRatio x; a non-positive ratio disables that
// gate. Every baseline benchmark must appear in cur — a missing one is a
// violation, so a renamed or deleted benchmark cannot leave the gate
// silently. Benchmarks only cur has are not compared.
func Compare(base, cur *Set, maxTimeRatio, maxAllocRatio float64) []Delta {
	var out []Delta
	for _, b := range base.Benchmarks {
		c, ok := cur.Lookup(b.Name)
		if !ok {
			out = append(out, Delta{Name: b.Name, Base: b, Violation: "missing from the new run"})
			continue
		}
		d := Delta{
			Name:       b.Name,
			Base:       b,
			Cur:        c,
			TimeRatio:  ratio(c.NsPerOp, b.NsPerOp),
			AllocRatio: ratio(c.AllocsPerOp, b.AllocsPerOp),
			BytesRatio: ratio(c.BytesPerOp, b.BytesPerOp),
		}
		switch {
		case maxTimeRatio > 0 && d.TimeRatio > maxTimeRatio:
			d.Violation = fmt.Sprintf("time %.2fx > %.2fx", d.TimeRatio, maxTimeRatio)
		case maxAllocRatio > 0 && d.AllocRatio > maxAllocRatio:
			d.Violation = fmt.Sprintf("allocs %.2fx > %.2fx", d.AllocRatio, maxAllocRatio)
		case maxAllocRatio > 0 && d.BytesRatio > maxAllocRatio:
			d.Violation = fmt.Sprintf("bytes %.2fx > %.2fx", d.BytesRatio, maxAllocRatio)
		}
		out = append(out, d)
	}
	return out
}

func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return cur / base
}
