package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the tracer's
// start so the written trace is small and independent of the wall clock.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Iter   int           `json:"iter"`   // iteration the span belongs to; -1 for set-up
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the same code path serves both
// runs without a branch at each call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span               // guarded by mu
	iter  int                  // guarded by mu
	notes map[string][]float64 // guarded by mu; per-layer counts and ratios
}

func newTracer() *tracer { return &tracer{t0: time.Now(), iter: -1} }

// setIter tags the spans started from now on with an iteration ID.
func (t *tracer) setIter(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter = i
	t.mu.Unlock()
}

// start opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already measured interval as a closed span, for time that
// accumulates across many short calls (such as the event sink's writes).
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := t.start(name, parent)
	t.mu.Lock()
	t.spans[s].Start = start.Sub(t.t0)
	t.spans[s].End = t.spans[s].Start + d
	t.mu.Unlock()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the seconds of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// p50 is the median seconds of the named spans, 0 when there are none.
func (t *tracer) p50(name string) float64 { return median(t.durations(name)) }

// selfTimes gives each span's duration minus the part of its interval
// covered by the union of its children.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanSummary is one span name's median total and self seconds.
type spanSummary struct {
	Name    string
	N       int
	P50     float64
	SelfP50 float64
}

// summarize groups closed spans by name, in order of first appearance.
func (t *tracer) summarize() []spanSummary {
	spans := t.closed()
	self := selfTimes(spans)
	var order []string
	total := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		if _, ok := total[s.Name]; !ok {
			order = append(order, s.Name)
		}
		total[s.Name] = append(total[s.Name], s.dur().Seconds())
		selfs[s.Name] = append(selfs[s.Name], self[s.ID].Seconds())
	}
	out := make([]spanSummary, 0, len(order))
	for _, name := range order {
		out = append(out, spanSummary{Name: name, N: len(total[name]), P50: median(total[name]), SelfP50: median(selfs[name])})
	}
	return out
}

// write stores every closed span as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.closed(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// note records one sample of a per-layer count or ratio.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.notes == nil {
		t.notes = make(map[string][]float64)
	}
	t.notes[name] = append(t.notes[name], v)
	t.mu.Unlock()
}

// noted is the median of the samples recorded under name; ok is false
// when there are none.
func (t *tracer) noted(name string) (v float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs, ok := t.notes[name]
	return median(xs), ok
}
