// Package coalesce implements Stage II of the study's pipeline: error
// coalescing. The same GPU error produces multiple near-identical log lines
// in close succession; counting each line as an error would grossly
// underestimate GPU resilience (§III-B). Coalescing keeps only the first
// occurrence of each (node, GPU, XID) within a window Δt anchored at the
// last kept occurrence.
package coalesce

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuresilience/internal/xid"
)

// DefaultWindow is the Δt used throughout the study's reproduction. Raw
// duplicate lines arrive milliseconds apart; genuine repeats of a persistent
// fault arrive minutes apart, so a seconds-scale window separates the two.
const DefaultWindow = 5 * time.Second

// Coalescer is a streaming deduplicator. Feed it events in roughly
// increasing time order (the order raw logs are read); events that land
// inside the window of the last kept occurrence of their key are dropped
// even if they arrive slightly out of order.
type Coalescer struct {
	window   time.Duration
	lastKept map[xid.Key]time.Time
	raw      int
	kept     int
}

var errNegativeWindow = errors.New("coalesce: negative window")

// New returns a Coalescer with the given window. A zero window disables
// coalescing (every event is kept), which is the "no dedup" ablation.
func New(window time.Duration) (*Coalescer, error) {
	return newSized(window, 0)
}

// newSized is New with a map presized for a run over hint events, so batch
// callers that know their input size skip the incremental map growth.
func newSized(window time.Duration, hint int) (*Coalescer, error) {
	if window < 0 {
		return nil, errNegativeWindow
	}
	return &Coalescer{
		window:   window,
		lastKept: make(map[xid.Key]time.Time, mapHint(hint)),
	}, nil
}

// mapHint sizes a per-run map from an event count: distinct keys are far
// fewer than events (that is what coalescing exploits), and the cap keeps a
// huge run from reserving more buckets than any realistic key population.
func mapHint(n int) int {
	const maxHint = 1 << 13
	n /= 8
	if n > maxHint {
		return maxHint
	}
	return n
}

// Add offers one raw event and reports whether it was kept (i.e. it is the
// first occurrence of its key within the window).
func (c *Coalescer) Add(ev xid.Event) bool {
	c.raw++
	key := ev.Key()
	if last, seen := c.lastKept[key]; seen {
		if ev.Time.Before(last.Add(c.window)) && !ev.Time.Before(last.Add(-c.window)) {
			return false
		}
	}
	c.lastKept[key] = ev.Time
	c.kept++
	return true
}

// Raw returns how many events were offered.
func (c *Coalescer) Raw() int { return c.raw }

// Kept returns how many events were kept.
func (c *Coalescer) Kept() int { return c.kept }

// Len returns how many distinct keys the coalescer currently tracks — the
// streaming daemon's "open windows" gauge.
func (c *Coalescer) Len() int { return len(c.lastKept) }

// EvictBefore drops tracked keys whose window can no longer suppress
// anything: once the caller guarantees every future event's timestamp is
// after cutoff (the streaming watermark gives exactly that guarantee), an
// entry whose last kept time plus the window is at or before cutoff would
// keep any future event anyway, so forgetting it cannot change the output.
// Returns how many entries were evicted. This is what bounds a long-running
// coalescer's state by the number of open windows instead of the number of
// keys ever seen.
func (c *Coalescer) EvictBefore(cutoff time.Time) int {
	n := 0
	for k, last := range c.lastKept {
		if !last.Add(c.window).After(cutoff) {
			delete(c.lastKept, k)
			n++
		}
	}
	return n
}

// KeyState is one tracked coalescing key and the time of its last kept
// occurrence — the unit of a checkpointed coalescer.
type KeyState struct {
	// Key is the (node, GPU, code) coalescing identity.
	Key xid.Key `json:"key"`
	// Last is when the key's last kept occurrence happened.
	Last time.Time `json:"last"`
}

// State snapshots the coalescer for checkpointing: the tracked keys sorted
// deterministically, plus the raw/kept totals. Restore rebuilds an
// equivalent coalescer from it.
func (c *Coalescer) State() (entries []KeyState, raw, kept int) {
	entries = make([]KeyState, 0, len(c.lastKept))
	for k, last := range c.lastKept {
		entries = append(entries, KeyState{Key: k, Last: last})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Key, entries[j].Key
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.GPU != b.GPU {
			return a.GPU < b.GPU
		}
		return a.Code < b.Code
	})
	return entries, c.raw, c.kept
}

// Restore rebuilds a coalescer from a checkpointed State, so a restarted
// streaming run continues deduplicating exactly where the previous process
// stopped.
func Restore(window time.Duration, entries []KeyState, raw, kept int) (*Coalescer, error) {
	c, err := newSized(window, len(entries)*8)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		c.lastKept[e.Key] = e.Last
	}
	c.raw, c.kept = raw, kept
	return c, nil
}

// Less is the canonical Stage II event order: (time, node, gpu, code), with
// input order breaking full ties (the sorts using it are stable). Batch
// coalescing and the streaming engine's sealing both order events with it,
// which is what makes their outputs identical.
func Less(a, b xid.Event) bool { return compare(a, b) < 0 }

// compare is Less as a three-way comparison, for slices.SortStableFunc.
func compare(a, b xid.Event) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.GPU, b.GPU); c != 0 {
		return c
	}
	return cmp.Compare(a.Code, b.Code)
}

// scratchPool recycles the working copy Events sorts and compacts, so
// repeated Stage II runs (the pipeline's steady state) reuse one backing
// array instead of allocating an input-sized copy per run.
var scratchPool = sync.Pool{New: func() any { return new([]xid.Event) }}

// Events coalesces a batch: it stably sorts a copy by Less, keeps the first
// occurrence of each key per window, and returns the kept events in order.
// The caller's slice is never modified, and the result shares no memory
// with the pooled working copy.
func Events(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	c, err := newSized(window, len(events))
	if err != nil {
		return nil, err
	}
	sp := scratchPool.Get().(*[]xid.Event)
	sorted := append((*sp)[:0], events...)
	slices.SortStableFunc(sorted, compare)
	kept := sorted[:0]
	for _, ev := range sorted {
		if c.Add(ev) {
			kept = append(kept, ev)
		}
	}
	out := make([]xid.Event, len(kept))
	copy(out, kept)
	// Drop the event contents so the pool never pins the node and detail
	// strings of a finished run.
	clear(sorted)
	*sp = sorted[:0]
	scratchPool.Put(sp)
	return out, nil
}

// EventsParallel is Events; workers is ignored. It remains for callers
// written against the former key-sharded coalescer, which measured slower
// than the single pass (docs/performance.md).
func EventsParallel(events []xid.Event, window time.Duration, workers int) ([]xid.Event, error) {
	return Events(events, window)
}

// CountByCode tallies events per XID code. The map is presized for the
// driver's code table, which bounds the distinct codes any run produces.
func CountByCode(events []xid.Event) map[xid.Code]int {
	out := make(map[xid.Code]int, 32)
	for _, ev := range events {
		out[ev.Code]++
	}
	return out
}

// CountByGroup tallies events per Table I row group, skipping codes with no
// row (the excluded software XIDs).
func CountByGroup(events []xid.Event) map[xid.Group]int {
	out := make(map[xid.Group]int, 8)
	for _, ev := range events {
		if g, ok := xid.GroupOf(ev.Code); ok {
			out[g]++
		}
	}
	return out
}
