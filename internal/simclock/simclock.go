// Package simclock implements the discrete-event simulation engine that
// drives the Delta cluster model. Events execute in strict timestamp order
// with deterministic tie-breaking (priority, then scheduling sequence), so a
// simulation is fully reproducible given the same inputs.
package simclock

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrPastEvent is returned when an event is scheduled before the current
// simulation time.
var ErrPastEvent = errors.New("simclock: event scheduled in the past")

// Handle identifies a scheduled event and allows cancellation. It names a
// slot of the engine's slab and the slot's generation at scheduling time,
// so a handle goes stale once its event fires or is cancelled, even after
// the slot is reused. The zero Handle names no event.
type Handle struct {
	slot uint32
	gen  uint32
}

// Engine is a single-threaded discrete-event executor. It is not safe for
// concurrent use; the simulation model is deterministic and single-threaded
// by design.
type Engine struct {
	start   time.Time // origin of the queue's integer time keys
	now     time.Time
	queue   []entry  // binary min-heap by (key, pri, seq)
	slots   []slot   // event slab, indexed by entry.slot and Handle.slot
	free    []uint32 // slots no queue entry refers to
	live    int      // queued events not cancelled
	dead    int      // cancelled events still in queue
	nextSeq uint64
	steps   uint64
}

// slot holds one event's time and function. A slot is reused once the
// entry that refers to it leaves the queue.
type slot struct {
	at  time.Time
	fn  func() // nil once fired or cancelled
	gen uint32 // bumped when the event fires or is cancelled; never 0
}

// retire ends the slot's event: its handle goes stale.
func (s *slot) retire() {
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
}

// entry is one queued event with its ordering inline, so sifting the heap
// compares integers and never touches the slab. A cancelled entry stays
// queued until it reaches the top, where it is dropped unrun.
type entry struct {
	key  int64 // nanoseconds from Engine.start, saturating at math.MaxInt64
	pri  int
	seq  uint64
	slot uint32
}

// before orders entries by time, then priority, then scheduling sequence.
// Keys saturate only for events ~292 years past the engine's start; two
// saturated keys fall back to comparing the full times.
func (e *Engine) before(a, b *entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return e.tieBefore(a, b)
}

// tieBefore is before for equal keys, kept out of line so before inlines
// into the heap loops.
func (e *Engine) tieBefore(a, b *entry) bool {
	if a.key == math.MaxInt64 {
		if at, bt := e.slots[a.slot].at, e.slots[b.slot].at; !at.Equal(bt) {
			return at.Before(bt)
		}
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// NewEngine returns an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{start: start, now: start}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.live }

// Schedule enqueues fn to run at time at with priority 0.
func (e *Engine) Schedule(at time.Time, fn func()) (Handle, error) {
	return e.SchedulePri(at, 0, fn)
}

// SchedulePri enqueues fn to run at time at. Events with equal timestamps run
// in ascending priority order; equal (time, priority) events run in
// scheduling order. Scheduling at exactly the current time is allowed and the
// event runs before the clock advances further.
func (e *Engine) SchedulePri(at time.Time, pri int, fn func()) (Handle, error) {
	if at.Before(e.now) {
		return Handle{}, fmt.Errorf("%w: at=%s now=%s", ErrPastEvent, at, e.now)
	}
	if fn == nil {
		return Handle{}, errors.New("simclock: nil event function")
	}
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = uint32(len(e.slots))
		e.slots = append(e.slots, slot{gen: 1})
	}
	s := &e.slots[i]
	s.at, s.fn = at, fn
	e.push(entry{key: int64(at.Sub(e.start)), pri: pri, seq: e.nextSeq, slot: i})
	e.nextSeq++
	e.live++
	return Handle{slot: i, gen: s.gen}, nil
}

// After enqueues fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) (Handle, error) {
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel removes a scheduled event, dropping its function at once.
// Cancelling an already-fired or already-cancelled event, or passing the
// zero Handle, is a no-op and returns false.
func (e *Engine) Cancel(h Handle) bool {
	if int(h.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.fn == nil {
		return false
	}
	s.retire()
	e.live--
	e.dead++
	// Rebuild once cancelled entries are most of the queue, so a workload
	// that cancels far-future events keeps the heap bounded.
	if e.dead > 64 && e.dead > e.live {
		e.compact()
	}
	return true
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false if the queue is empty.
func (e *Engine) Step() bool {
	if !e.skipDead() {
		return false
	}
	i := e.pop().slot
	s := &e.slots[i]
	e.now = s.at
	e.steps++
	e.live--
	fn := s.fn
	s.retire()
	e.free = append(e.free, i)
	fn()
	return true
}

// Run executes events until the queue is empty or the next event is after
// until. The clock is left at until (or at the last event time if that is
// later than until, which cannot happen by construction).
func (e *Engine) Run(until time.Time) {
	for e.skipDead() && !e.slots[e.queue[0].slot].at.After(until) {
		e.Step()
	}
	if e.now.Before(until) {
		e.now = until
	}
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// skipDead pops cancelled entries off the top of the heap and reports
// whether a live event remains.
func (e *Engine) skipDead() bool {
	for len(e.queue) > 0 {
		i := e.queue[0].slot
		if e.slots[i].fn != nil {
			return true
		}
		e.pop()
		e.free = append(e.free, i)
		e.dead--
	}
	return false
}

// push adds x to the heap.
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&x, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes and returns the heap's minimum.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	e.queue = q[:n]
	if n > 0 {
		e.down(0)
	}
	return top
}

// down sifts the entry at i toward the leaves.
func (e *Engine) down(i int) {
	q := e.queue
	n := len(q)
	x := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.before(&q[r], &q[c]) {
			c = r
		}
		if !e.before(&q[c], &x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}

// compact drops every cancelled entry and re-heapifies. The heap order is
// total (sequences are unique), so firing order does not depend on layout.
func (e *Engine) compact() {
	q := e.queue[:0]
	for _, x := range e.queue {
		if e.slots[x.slot].fn != nil {
			q = append(q, x)
		} else {
			e.free = append(e.free, x.slot)
		}
	}
	e.queue = q
	for i := len(q)/2 - 1; i >= 0; i-- {
		e.down(i)
	}
	e.dead = 0
}
