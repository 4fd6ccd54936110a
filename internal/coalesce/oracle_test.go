package coalesce

import (
	"sort"
	"time"

	"gpuresilience/internal/xid"
)

// oracleEvents is the straightforward batch coalescer Events replaced,
// kept verbatim as the reference the one-pass pooled body is checked
// against: a fresh sorted copy, then a keep-first-per-key scan into a new
// slice.
func oracleEvents(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	c, err := newSized(window, len(events))
	if err != nil {
		return nil, err
	}
	sorted := make([]xid.Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, k int) bool { return Less(sorted[i], sorted[k]) })
	out := make([]xid.Event, 0, len(sorted))
	for _, ev := range sorted {
		if c.Add(ev) {
			out = append(out, ev)
		}
	}
	return out, nil
}
