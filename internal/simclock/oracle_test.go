package simclock

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// The historical engine, kept verbatim (names prefixed) as the
// differential oracle for Engine: a container/heap of *Handle whose Less
// compares time.Time values through the handles and whose Cancel removes
// the entry from the middle of the heap. FuzzEngine holds the inline-key
// heap to its firing order, clock, step count and pending count.

// oracleHandle identifies a scheduled event and allows cancellation.
type oracleHandle struct {
	seq   uint64
	index int // heap index; -1 once popped or cancelled
	at    time.Time
	pri   int
	fn    func()
}

// Time returns the time the event is scheduled to fire.
func (h *oracleHandle) Time() time.Time { return h.at }

// oracleEngine is a single-threaded discrete-event executor. It is not safe for
// concurrent use; the simulation model is deterministic and single-threaded
// by design.
type oracleEngine struct {
	now     time.Time
	queue   oracleHeap
	nextSeq uint64
	steps   uint64
}

// newOracleEngine returns an engine whose clock starts at start.
func newOracleEngine(start time.Time) *oracleEngine {
	return &oracleEngine{now: start}
}

// Now returns the current simulation time.
func (e *oracleEngine) Now() time.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *oracleEngine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *oracleEngine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run at time at with priority 0.
func (e *oracleEngine) Schedule(at time.Time, fn func()) (*oracleHandle, error) {
	return e.SchedulePri(at, 0, fn)
}

// SchedulePri enqueues fn to run at time at. Events with equal timestamps run
// in ascending priority order; equal (time, priority) events run in
// scheduling order. Scheduling at exactly the current time is allowed and the
// event runs before the clock advances further.
func (e *oracleEngine) SchedulePri(at time.Time, pri int, fn func()) (*oracleHandle, error) {
	if at.Before(e.now) {
		return nil, fmt.Errorf("%w: at=%s now=%s", ErrPastEvent, at, e.now)
	}
	if fn == nil {
		return nil, errors.New("simclock: nil event function")
	}
	h := &oracleHandle{seq: e.nextSeq, at: at, pri: pri, fn: fn}
	e.nextSeq++
	heap.Push(&e.queue, h)
	return h, nil
}

// After enqueues fn to run d after the current time.
func (e *oracleEngine) After(d time.Duration, fn func()) (*oracleHandle, error) {
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *oracleEngine) Cancel(h *oracleHandle) bool {
	if h == nil || h.index < 0 {
		return false
	}
	heap.Remove(&e.queue, h.index)
	h.index = -1
	h.fn = nil
	return true
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false if the queue is empty.
func (e *oracleEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	h, ok := heap.Pop(&e.queue).(*oracleHandle)
	if !ok {
		return false
	}
	h.index = -1
	e.now = h.at
	e.steps++
	fn := h.fn
	h.fn = nil
	fn()
	return true
}

// Run executes events until the queue is empty or the next event is after
// until. The clock is left at until (or at the last event time if that is
// later than until, which cannot happen by construction).
func (e *oracleEngine) Run(until time.Time) {
	for len(e.queue) > 0 && !e.queue[0].at.After(until) {
		e.Step()
	}
	if e.now.Before(until) {
		e.now = until
	}
}

// RunAll executes events until the queue is empty.
func (e *oracleEngine) RunAll() {
	for e.Step() {
	}
}

// oracleHeap orders by (time, priority, sequence).
type oracleHeap []*oracleHandle

// Len implements heap.Interface.
func (h oracleHeap) Len() int { return len(h) }

// Less implements heap.Interface: earliest time first, ties broken by
// priority then insertion sequence, keeping runs deterministic.
func (h oracleHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface and keeps handle indexes current.
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// Push implements heap.Interface.
func (h *oracleHeap) Push(x any) {
	ev, ok := x.(*oracleHandle)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

// Pop implements heap.Interface.
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
