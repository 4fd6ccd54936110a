package simclock

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// driver runs one engine through the fuzz operations. Each scheduled event
// records its id when it fires; events with id%5 == 0 schedule a follow-up
// and events with id%7 == 3 cancel an earlier event, so the queue also
// changes from inside running events. Cancelling a fired event whose slab
// slot a later event reuses exercises stale handles.
type driver struct {
	now        func() time.Time
	schedule   func(at time.Time, pri int, fn func()) (cancel func() bool, err error)
	cancelZero func() bool // cancel through the zero handle
	step       func() bool
	run        func(until time.Time)
	steps      func() uint64
	pending    func() int

	cancels []func() bool // by event id
	fired   []int         // event ids in firing order
}

func newDriver() *driver {
	e := NewEngine(t0)
	return &driver{
		now: e.Now, step: e.Step, run: e.Run, steps: e.Steps, pending: e.Pending,
		schedule: func(at time.Time, pri int, fn func()) (func() bool, error) {
			h, err := e.SchedulePri(at, pri, fn)
			return func() bool { return e.Cancel(h) }, err
		},
		cancelZero: func() bool { return e.Cancel(Handle{}) },
	}
}

func newOracleDriver() *driver {
	e := newOracleEngine(t0)
	return &driver{
		now: e.Now, step: e.Step, run: e.Run, steps: e.Steps, pending: e.Pending,
		schedule: func(at time.Time, pri int, fn func()) (func() bool, error) {
			h, err := e.SchedulePri(at, pri, fn)
			return func() bool { return e.Cancel(h) }, err
		},
		cancelZero: func() bool { return e.Cancel(nil) },
	}
}

func (d *driver) add(at time.Time, pri int) error {
	id := len(d.cancels)
	cancel, err := d.schedule(at, pri, func() { d.fire(id) })
	if err == nil {
		d.cancels = append(d.cancels, cancel)
	}
	return err
}

func (d *driver) fire(id int) {
	d.fired = append(d.fired, id)
	switch {
	case id%5 == 0:
		_ = d.add(d.now().Add(time.Duration(id%3)*time.Second), id%2)
	case id%7 == 3:
		d.cancel(id / 2)
	}
}

func (d *driver) cancel(i int) bool {
	if len(d.cancels) == 0 {
		return false
	}
	return d.cancels[i%len(d.cancels)]()
}

// check compares everything observable of the engine with the oracle.
func check(t *testing.T, op string, got, want *driver) {
	t.Helper()
	if !slices.Equal(got.fired, want.fired) {
		t.Fatalf("after %s: fired %v, oracle %v", op, got.fired, want.fired)
	}
	if !got.now().Equal(want.now()) {
		t.Fatalf("after %s: Now %v, oracle %v", op, got.now(), want.now())
	}
	if got.steps() != want.steps() {
		t.Fatalf("after %s: Steps %d, oracle %d", op, got.steps(), want.steps())
	}
	if got.pending() != want.pending() {
		t.Fatalf("after %s: Pending %d, oracle %d", op, got.pending(), want.pending())
	}
}

// runOps decodes data into engine operations, two bytes each: an opcode
// and an argument.
func runOps(t *testing.T, data []byte) {
	got, want := newDriver(), newOracleDriver()
	for len(data) >= 2 {
		op, arg := data[0], data[1]
		data = data[2:]
		var name string
		switch op % 8 {
		case 0, 1, 2: // schedule within a few seconds: same-instant and same-priority ties
			name = "schedule"
			at, pri := got.now().Add(time.Duration(arg%4)*time.Second), int(arg/4%3)-1
			if err, oerr := got.add(at, pri), want.add(at, pri); (err == nil) != (oerr == nil) {
				t.Fatalf("schedule at %v: err %v, oracle %v", at, err, oerr)
			}
		case 3: // schedule in the past, or ~300 years ahead where keys saturate
			name = "schedule far"
			at := t0.AddDate(300, 0, 0)
			if arg%2 == 0 {
				at = got.now().Add(-time.Second)
			}
			at = at.Add(time.Duration(arg%8) * time.Second)
			if err, oerr := got.add(at, int(arg%3)), want.add(at, int(arg%3)); (err == nil) != (oerr == nil) {
				t.Fatalf("schedule at %v: err %v, oracle %v", at, err, oerr)
			}
		case 4, 5: // cancel, including fired and already-cancelled events
			name = "cancel"
			if op%8 == 5 && arg%8 == 0 {
				name = "cancel zero"
				if g, w := got.cancelZero(), want.cancelZero(); g || w {
					t.Fatalf("Cancel(zero) = %v, oracle %v", g, w)
				}
				break
			}
			if g, w := got.cancel(int(arg)), want.cancel(int(arg)); g != w {
				t.Fatalf("Cancel(#%d) = %v, oracle %v", arg, g, w)
			}
		case 6:
			name = "step"
			if g, w := got.step(), want.step(); g != w {
				t.Fatalf("Step() = %v, oracle %v", g, w)
			}
		case 7: // run until a time that may be before the clock
			name = "run"
			until := got.now().Add(time.Duration(int(arg)-16) * time.Second)
			got.run(until)
			want.run(until)
		}
		check(t, name, got, want)
	}
	for want.step() {
		if !got.step() {
			t.Fatal("engine ran out of events before the oracle")
		}
	}
	if got.step() {
		t.Fatal("engine fired an event the oracle does not have")
	}
	check(t, "drain", got, want)
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 4, 6, 0, 6, 0})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 4, 1, 6, 0, 4, 0, 7, 20})
	f.Add([]byte{3, 1, 3, 3, 3, 5, 0, 2, 7, 255, 6, 0, 4, 2})
	f.Add([]byte{0, 0, 0, 4, 0, 8, 0, 0, 7, 16, 0, 0, 6, 0, 4, 3, 7, 0})
	// Fire #0, reuse its slot for #1, cancel #0's stale handle and the zero
	// handle, then fire #1.
	f.Add([]byte{0, 0, 6, 0, 0, 1, 4, 0, 5, 0, 6, 0})
	f.Fuzz(runOps)
}

// TestEngineMatchesOracleLongRuns covers the long op sequences short fuzz
// runs rarely reach: deep queues, heavy cancellation and the compaction it
// triggers.
func TestEngineMatchesOracleLongRuns(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			data := make([]byte, 4000)
			x := uint32(seed*2654435761 + 1)
			for i := range data {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				data[i] = byte(x)
				if i%2 == 0 && seed%2 == 1 && data[i]%8 == 6 {
					data[i] = 4 // cancel-heavy mixes
				}
			}
			runOps(t, data)
		})
	}
}

func TestCancelCompactsQueue(t *testing.T) {
	e := NewEngine(t0)
	var hs []Handle
	var fired []time.Time
	for i := 0; i < 1000; i++ {
		// Scrambled times, so dropping entries leaves no valid heap behind.
		h, err := e.Schedule(t0.Add(time.Duration(i*389%1000)*time.Second), func() {
			fired = append(fired, e.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if i%10 != 0 {
			e.Cancel(h)
			if e.slots[h.slot].fn != nil {
				t.Fatal("Cancel kept the event's function")
			}
		}
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	if len(e.queue) > 2*e.Pending()+64 {
		t.Fatalf("queue holds %d entries for %d live events", len(e.queue), e.Pending())
	}
	e.RunAll()
	if e.Steps() != 100 || len(fired) != 100 {
		t.Fatalf("Steps = %d, fired %d, want 100", e.Steps(), len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if !fired[i-1].Before(fired[i]) {
			t.Fatalf("event %d fired at %v after %v", i, fired[i], fired[i-1])
		}
	}
}
