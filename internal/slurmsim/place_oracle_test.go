package slurmsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/simclock"
)

// tryPlaceOracle is the historical placement, kept as the differential
// oracle for tryPlace: copy the eligible hosts and sort them by (free count
// desc, name asc) on every call. Only its output is ported to the
// name-ordered Placement.
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
	var place Placement
	need := gpus
	for _, h := range cands {
		if need == 0 {
			break
		}
		take := h.freeCount
		if take > need {
			take = need
		}
		var mask uint64
		for i, n := 0, 0; i < h.numGPUs && n < take; i++ {
			if h.free&(1<<i) != 0 {
				mask |= 1 << i
				n++
			}
		}
		place = append(place, Alloc{Node: h.name, GPUs: mask})
		need -= take
	}
	if need > 0 {
		return nil
	}
	sort.Slice(place, func(i, k int) bool { return place[i].Node < place[k].Node })
	return place
}

// freeGPUsOracle is the historical per-host FreeGPUs, kept verbatim as the
// oracle for the counter.
func (s *Scheduler) freeGPUsOracle() int {
	total := 0
	for _, h := range s.hosts {
		if h.schedulable && h.online {
			total += h.freeCount
		}
	}
	return total
}

// checkSchedulerState requires the FreeGPUs and RunningCount counters to
// match a recount, and every host's free mask to hold exactly the GPUs no
// running job occupies.
func checkSchedulerState(t *testing.T, s *Scheduler, op string) {
	t.Helper()
	if got, want := s.FreeGPUs(), s.freeGPUsOracle(); got != want {
		t.Fatalf("after %s: FreeGPUs %d, per-host sum %d", op, got, want)
	}
	running := make(map[*Job]bool)
	for _, h := range s.hosts {
		if h.freeCount != bits.OnesCount64(h.free) {
			t.Fatalf("after %s: %s freeCount %d, mask %b", op, h.name, h.freeCount, h.free)
		}
		for i, j := range h.running {
			if (j == nil) != (h.free&(1<<i) != 0) {
				t.Fatalf("after %s: %s GPU %d free=%v but runs %v", op, h.name, i, j == nil, j)
			}
			if j != nil {
				if j.State != StateRunning {
					t.Fatalf("after %s: %s GPU %d holds a %s job", op, h.name, i, j.State)
				}
				running[j] = true
			}
		}
	}
	if s.RunningCount() != len(running) {
		t.Fatalf("after %s: RunningCount %d, distinct running jobs %d", op, s.RunningCount(), len(running))
	}
}

// checkPlaceAgainstOracle decodes a host set from data and requires every
// placement to equal the oracle's. data[0] is the host count; each host then
// takes three bytes: a name and board-size byte (hosts register in byte
// order, which is not name order), a bitmap of GPUs a seed job already
// holds, and the schedulable and online flags. Every remaining byte is an
// operation: most are requests of 1..capacity+1 GPUs, each placement
// started as a job so later requests see the new state; the rest drain or
// undrain a host, fail or restore it, or kill a running job. The
// scheduler's counters are checked after every operation.
func checkPlaceAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	eng := simclock.NewEngine(time.Unix(0, 0))
	s, err := NewScheduler(DefaultConfig(), eng)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	startJob := func(place Placement) {
		j := &Job{GPUs: place.TotalGPUs(), RunDuration: time.Hour}
		jobs = append(jobs, j)
		s.start(j, place, eng.Now())
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
		if held := uint64(bitmap) & (1<<gpus - 1); held != 0 {
			startJob(Placement{{Node: name, GPUs: held}})
		}
		s.setAvail(s.hostIndex[name], flags&1 == 0, flags&2 == 0)
		checkSchedulerState(t, s, "setup of "+name)
	}
	if s.capacity == 0 {
		return
	}
	for r, b := range data {
		if r == 24 {
			break
		}
		h := s.hosts[int(b>>3)%len(s.hosts)]
		var op string
		switch b % 8 {
		case 5:
			op = "drain flip of " + h.name
			s.SetSchedulable(h.name, !h.schedulable)
		case 6:
			op = "fail of " + h.name
			s.FailNode(h.name)
		case 7:
			op = "restore of " + h.name
			s.RestoreNode(h.name)
		case 4:
			op = "kill"
			if len(jobs) > 0 {
				s.Kill(jobs[int(b>>3)%len(jobs)], StateFailed, 1)
			}
		default:
			gpus := 1 + int(b)%(s.capacity+1)
			op = fmt.Sprintf("request %d for %d GPUs", r, gpus)
			got := s.tryPlace(gpus)
			want := s.tryPlaceOracle(gpus)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: placement %v, oracle %v", op, got, want)
			}
			if got != nil {
				startJob(got)
			}
		}
		checkSchedulerState(t, s, op)
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
	data := make([]byte, 1+3*31+24)
	for i := 0; i < trials; i++ {
		rng.Read(data)
		checkPlaceAgainstOracle(t, data)
	}
}

// FuzzPlace holds tryPlace to the historical sort-based placement, and the
// scheduler's counters to a recount, on host sets and drain, fail, restore
// and kill sequences decoded from the fuzz input.
func FuzzPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 2, 0, 0, 4, 0, 0, 5, 9, 3})
	f.Add([]byte{4, 9, 0x0f, 0, 3, 0x30, 0, 6, 0x05, 0, 7, 0x01, 2, 1, 4, 8, 12})
	f.Add([]byte{3, 0, 0, 0, 2, 0x03, 0, 5, 0, 0, 1, 14, 9, 3, 15, 7, 2, 13, 6, 4, 12})
	f.Fuzz(checkPlaceAgainstOracle)
}
