package slurmsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/simclock"
)

// tryPlaceOracle is the historical placement, kept verbatim as the
// differential oracle for tryPlace: copy the eligible hosts and sort them by
// (free count desc, name asc) on every call.
func (s *Scheduler) tryPlaceOracle(gpus int) Placement {
	totalFree := 0
	for _, h := range s.hosts {
		if h.schedulable && h.online {
			totalFree += h.freeCount
		}
	}
	if totalFree < gpus {
		return nil
	}
	// Candidate hosts sorted by descending free count, then name for
	// determinism.
	cands := make([]*host, 0, len(s.hosts))
	for _, h := range s.hosts {
		if h.schedulable && h.online && h.freeCount > 0 {
			cands = append(cands, h)
		}
	}
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].freeCount != cands[k].freeCount {
			return cands[i].freeCount > cands[k].freeCount
		}
		return cands[i].name < cands[k].name
	})
	place := make(Placement)
	need := gpus
	for _, h := range cands {
		if need == 0 {
			break
		}
		take := h.freeCount
		if take > need {
			take = need
		}
		idxs := make([]int, 0, take)
		for i := 0; i < h.numGPUs && len(idxs) < take; i++ {
			if h.free[i] {
				idxs = append(idxs, i)
			}
		}
		place[h.name] = idxs
		need -= take
	}
	if need > 0 {
		return nil
	}
	return place
}

// checkPlaceAgainstOracle decodes a host set from data and requires every
// placement to equal the oracle's. data[0] is the host count; each host then
// takes three bytes: a name and board-size byte (hosts register in byte
// order, which is not name order), a free-GPU bitmap, and the schedulable
// and online flags. Every remaining byte is a request of 1..capacity+1
// GPUs; each placement is allocated so later requests see the new state.
func checkPlaceAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	s, err := NewScheduler(DefaultConfig(), simclock.NewEngine(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	nHosts := int(data[0] % 32)
	data = data[1:]
	for ; nHosts > 0 && len(data) >= 3; nHosts-- {
		id, bitmap, flags := data[0], data[1], data[2]
		data = data[3:]
		gpus := 4
		if id&1 == 1 {
			gpus = 8
		}
		name := fmt.Sprintf("gpub%d", id>>1)
		if err := s.AddHost(name, gpus); err != nil {
			continue // duplicate name
		}
		h := s.hostIndex[name]
		for i := range h.free {
			if bitmap&(1<<i) != 0 {
				h.free[i] = false
				h.freeCount--
			}
		}
		h.schedulable = flags&1 == 0
		h.online = flags&2 == 0
	}
	if s.capacity == 0 {
		return
	}
	for r, b := range data {
		if r == 16 {
			break
		}
		gpus := 1 + int(b)%(s.capacity+1)
		got := s.tryPlace(gpus)
		want := s.tryPlaceOracle(gpus)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d for %d GPUs: placement %v, oracle %v", r, gpus, got, want)
		}
		for node, idxs := range got {
			h := s.hostIndex[node]
			for _, i := range idxs {
				h.free[i] = false
			}
			h.freeCount -= len(idxs)
		}
	}
}

// TestPlaceMatchesOracle runs the differential check over seeded random
// host sets.
func TestPlaceMatchesOracle(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1+3*31+16)
	for i := 0; i < trials; i++ {
		rng.Read(data)
		checkPlaceAgainstOracle(t, data)
	}
}

// FuzzPlace holds tryPlace to the historical sort-based placement on host
// sets decoded from the fuzz input.
func FuzzPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 0, 4, 0, 0, 5, 9, 3})
	f.Add([]byte{4, 9, 0x0f, 0, 3, 0x30, 0, 6, 0x05, 0, 7, 0x01, 2, 1, 4, 8, 12})
	f.Fuzz(checkPlaceAgainstOracle)
}
