package coalesce

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

var fuzzCodes = []xid.Code{xid.MMU, xid.DBE, xid.RRE, xid.NVLink, xid.UncontainedMem, xid.GSPError}

// randomEvents builds a stream with heavy key collisions, duplicate
// timestamps, and out-of-order arrivals — the structures that distinguish a
// correct stable sort and keep-first scan from a lucky one.
func randomEvents(seed uint64, n int) []xid.Event {
	rng := randx.NewStream(seed)
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]xid.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := xid.Event{
			// Coarse buckets force same-instant ties across distinct keys.
			Time: base.Add(time.Duration(rng.Intn(500)) * time.Second),
			Node: []string{"gpub001", "gpub002", "gpub003"}[rng.Intn(3)],
			GPU:  rng.Intn(4),
			Code: fuzzCodes[rng.Intn(len(fuzzCodes))],
		}
		out = append(out, ev)
	}
	return out
}

// Property: Events, and EventsParallel at any worker count, are identical
// to the oracle for every window, including the window=0 "no dedup"
// ablation.
func TestEventsParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		events := randomEvents(seed, 24576)
		for _, window := range []time.Duration{0, time.Second, 5 * time.Second, time.Minute} {
			want, err := oracleEvents(events, window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Events(events, window)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d window=%v: Events diverges from the oracle "+
					"(got %d events, want %d)", seed, window, len(got), len(want))
			}
			for _, workers := range []int{2, 16} {
				got, err := EventsParallel(events, window, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d window=%v workers=%d: EventsParallel diverges", seed, window, workers)
				}
			}
		}
	}
}

func TestEventsParallelSmallInput(t *testing.T) {
	events := randomEvents(7, 100)
	want, err := oracleEvents(events, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EventsParallel(events, 5*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("small input diverges from the oracle")
	}
	if _, err := EventsParallel(events, -time.Second, 8); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestEventsParallelEmpty(t *testing.T) {
	got, err := EventsParallel(nil, 5*time.Second, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

// Concurrent calls share the scratch pool; each must still get exactly its
// own oracle result. Run under -race, this also checks the pool hand-off.
func TestEventsConcurrent(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		events := randomEvents(uint64(100+g), 2000+500*g)
		want, err := oracleEvents(events, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := Events(events, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent call diverges from the oracle (got %d events, want %d)", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// decodeEvents turns fuzz bytes into events, four bytes each: a time
// offset in a narrow range (so ties and out-of-order arrivals are common),
// then node, GPU and code picked from small sets (so keys collide).
func decodeEvents(data []byte) []xid.Event {
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	nodes := []string{"gpub001", "gpub002", "gpub003"}
	events := make([]xid.Event, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		events = append(events, xid.Event{
			Time:   base.Add(time.Duration(data[i]) * 500 * time.Millisecond),
			Node:   nodes[int(data[i+1])%len(nodes)],
			GPU:    int(data[i+2] % 4),
			Code:   fuzzCodes[int(data[i+3])%len(fuzzCodes)],
			Detail: string(rune('a' + i/4%26)),
		})
	}
	return events
}

// FuzzEvents holds the pooled one-pass Events to the oracle on arbitrary
// streams, and checks the pool's two contracts: the caller's slice is
// never modified, and no result aliases the recycled working copy (so
// neither a later call nor a caller writing into an earlier result can
// change another result).
func FuzzEvents(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 20, 0, 0, 0}, uint16(5))
	f.Add([]byte{9, 1, 2, 3, 3, 1, 2, 3, 3, 2, 2, 3, 0, 1, 2, 3}, uint16(0))
	f.Add([]byte{255, 2, 3, 5, 0, 2, 3, 5, 128, 0, 1, 4}, uint16(60))
	f.Fuzz(func(t *testing.T, data []byte, windowSec uint16) {
		events := decodeEvents(data)
		window := time.Duration(windowSec%300) * time.Second
		input := slices.Clone(events)
		want, err := oracleEvents(events, window)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Events(events, window)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("window=%v: Events = %v, oracle = %v", window, first, want)
		}
		if !reflect.DeepEqual(events, input) {
			t.Fatal("Events modified its input slice")
		}
		second, err := Events(events, window)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatal("a second call changed the first call's result")
		}
		for i := range first {
			first[i].Node = "mutated"
		}
		if !reflect.DeepEqual(second, want) {
			t.Fatal("writing into one result changed another call's result")
		}
	})
}
