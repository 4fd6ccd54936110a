package slurmsim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"gpuresilience/internal/simclock"
)

// Config parameterizes the scheduler.
type Config struct {
	// GPUsPerNode is the allocation granularity (4 on Delta's 4-way nodes;
	// the six 8-way nodes are modeled as additional hosts with 8).
	GPUsPerNode int
	// ScanLimit bounds how many pending jobs one scheduling pass examines
	// (backfill-style: jobs behind an unschedulable head may still start).
	ScanLimit int
	// MaxQueueWait cancels jobs that sit pending longer than this. Zero
	// disables cancellation.
	MaxQueueWait time.Duration
	// ReserveAfter turns scheduling strictly FIFO behind a job that has
	// waited this long: no later job may jump it, so freed capacity
	// accumulates until the wide job fits (poor man's reservation). Zero
	// disables reservations.
	ReserveAfter time.Duration
	// RequeueOnNodeFail resubmits a fresh copy of every job killed by a
	// node failure (Slurm's --requeue behavior). The killed attempt keeps
	// its NODE_FAIL record; the copy restarts from scratch. Off by default:
	// the study counts each attempt as its own record.
	RequeueOnNodeFail bool
}

// DefaultConfig returns scheduler settings matching Delta's A100 partition.
func DefaultConfig() Config {
	return Config{
		GPUsPerNode:  4,
		ScanLimit:    4000,
		MaxQueueWait: 30 * 24 * time.Hour,
		ReserveAfter: 6 * time.Hour,
	}
}

type host struct {
	name        string
	numGPUs     int
	free        uint64 // bit i set when GPU i is unallocated
	freeCount   int
	schedulable bool   // accepting new work (false while draining or down)
	online      bool   // false while rebooting/failed
	running     []*Job // running[i] is the job on GPU i, or nil
}

// open reports whether the host takes new work.
func (h *host) open() bool { return h.schedulable && h.online }

// Scheduler places jobs on hosts and tracks their lifecycle.
type Scheduler struct {
	cfg    Config
	engine *simclock.Engine

	// hosts is kept in name order, the placement tie-break.
	hosts     []*host
	hostIndex map[string]*host
	counts    []int // tryPlace scratch: hosts per free count, 0..max GPUs

	// passFn is s.pass bound once: a method value allocates a closure
	// each time it is taken.
	passFn func()

	pending  []*Job
	records  []*Job
	nextID   int
	capacity int // total GPUs across all hosts
	freeGPUs int // free GPUs on open hosts
	running  int // distinct running jobs

	passQueued bool

	// OnTerminal, if set, is called once per job when it reaches a terminal
	// state.
	OnTerminal func(*Job)
}

// NewScheduler returns a scheduler driven by engine.
func NewScheduler(cfg Config, engine *simclock.Engine) (*Scheduler, error) {
	if engine == nil {
		return nil, errors.New("slurmsim: nil engine")
	}
	if cfg.GPUsPerNode <= 0 {
		return nil, errors.New("slurmsim: GPUsPerNode must be positive")
	}
	if cfg.ScanLimit <= 0 {
		cfg.ScanLimit = 4000
	}
	s := &Scheduler{
		cfg:       cfg,
		engine:    engine,
		hostIndex: make(map[string]*host),
		nextID:    1,
	}
	s.passFn = s.pass
	return s, nil
}

// AddHost registers a node with the given GPU count, at most
// maxNodeGPUs. Placement depends only on host names and state, not on
// registration order.
func (s *Scheduler) AddHost(name string, gpus int) error {
	if _, dup := s.hostIndex[name]; dup {
		return fmt.Errorf("slurmsim: duplicate host %q", name)
	}
	if gpus <= 0 {
		return fmt.Errorf("slurmsim: host %q has no GPUs", name)
	}
	if gpus > maxNodeGPUs {
		return fmt.Errorf("slurmsim: host %q has %d GPUs, more than %d", name, gpus, maxNodeGPUs)
	}
	h := &host{
		name:        name,
		numGPUs:     gpus,
		free:        ^uint64(0) >> (maxNodeGPUs - gpus),
		freeCount:   gpus,
		schedulable: true,
		online:      true,
		running:     make([]*Job, gpus),
	}
	i := sort.Search(len(s.hosts), func(i int) bool { return s.hosts[i].name > name })
	s.hosts = slices.Insert(s.hosts, i, h)
	s.hostIndex[name] = h
	s.capacity += gpus
	s.freeGPUs += gpus
	if gpus >= len(s.counts) {
		s.counts = make([]int, gpus+1)
	}
	return nil
}

// Submit enqueues a job at the current simulation time and assigns its ID.
func (s *Scheduler) Submit(j *Job) error {
	if j == nil {
		return errors.New("slurmsim: nil job")
	}
	if j.GPUs <= 0 {
		return fmt.Errorf("slurmsim: job %q requests %d GPUs", j.Name, j.GPUs)
	}
	j.ID = s.nextID
	s.nextID++
	j.Submit = s.engine.Now()
	if j.GPUs > s.capacity {
		// Slurm rejects requests exceeding partition capacity outright.
		j.State = StateCancelled
		j.End = j.Submit
		s.finish(j)
		return nil
	}
	j.State = StatePending
	s.pending = append(s.pending, j)
	s.queuePass()
	return nil
}

// queuePass schedules one scheduling pass at the current timestamp (after
// all same-time events, so a burst of frees is handled by one pass).
func (s *Scheduler) queuePass() {
	if s.passQueued {
		return
	}
	s.passQueued = true
	// Priority 100 sorts the pass after same-time submissions and frees.
	if _, err := s.engine.SchedulePri(s.engine.Now(), 100, s.passFn); err != nil {
		s.passQueued = false
	}
}

// pass scans the pending queue first-fit (bounded backfill) and starts every
// job that can be placed now. It exits early once free capacity is exhausted
// and switches to strict FIFO behind a long-waiting job (reservation).
func (s *Scheduler) pass() {
	s.passQueued = false
	if len(s.pending) == 0 {
		return
	}
	now := s.engine.Now()
	totalFree := s.freeGPUs
	kept := s.pending[:0]
	scanned := 0
	for qi, j := range s.pending {
		if scanned >= s.cfg.ScanLimit || totalFree == 0 {
			kept = append(kept, s.pending[qi:]...)
			break
		}
		scanned++
		if s.cfg.MaxQueueWait > 0 && now.Sub(j.Submit) > s.cfg.MaxQueueWait {
			j.State = StateCancelled
			j.End = now
			j.ExitCode = 0
			s.finish(j)
			continue
		}
		if j.GPUs > totalFree {
			kept = append(kept, j)
			if s.cfg.ReserveAfter > 0 && now.Sub(j.Submit) > s.cfg.ReserveAfter {
				// Reservation: hold remaining capacity for this job.
				kept = append(kept, s.pending[qi+1:]...)
				break
			}
			continue
		}
		place := s.tryPlace(j.GPUs)
		if place == nil {
			kept = append(kept, j)
			continue
		}
		totalFree -= j.GPUs
		s.start(j, place, now)
	}
	s.pending = kept
}

// tryPlace finds GPUs for a job, preferring the fullest-fitting hosts
// (best-fit decreasing over free counts) so whole nodes stay available for
// wide jobs. Returns nil when capacity is insufficient right now.
func (s *Scheduler) tryPlace(gpus int) Placement {
	// Best fit walks hosts by (free count desc, name asc) and takes GPUs
	// until the request is met, so every host above the last free count it
	// reaches (the cut) gives all its free GPUs, and the first hosts by name
	// at the cut give the rest. Counting hosts per free count finds the
	// cut; one scan in name order then builds the same Placement without
	// ranking the hosts.
	counts := s.counts
	clear(counts)
	for _, h := range s.hosts {
		if h.open() {
			counts[h.freeCount]++
		}
	}
	// need ends as the GPUs to take at the cut; above counts the hosts
	// above it.
	cut, above, need := 0, 0, gpus
	for f := len(counts) - 1; f > 0; f-- {
		if need <= f*counts[f] {
			cut = f
			break
		}
		need -= f * counts[f]
		above += counts[f]
	}
	if cut == 0 {
		return nil
	}
	place := make(Placement, 0, above+(need+cut-1)/cut)
	for _, h := range s.hosts {
		if above == 0 && need == 0 {
			break
		}
		if !h.open() || h.freeCount < cut {
			continue
		}
		mask := h.free
		switch {
		case h.freeCount > cut:
			above--
		case need == 0:
			continue
		default:
			take := min(h.freeCount, need)
			need -= take
			// Keep the take lowest free GPUs: clear the rest.
			rest := mask
			for range take {
				rest &= rest - 1
			}
			mask &^= rest
		}
		place = append(place, Alloc{Node: h.name, GPUs: mask})
	}
	return place
}

// start allocates the placement and schedules the job's natural end.
func (s *Scheduler) start(j *Job, place Placement, now time.Time) {
	for _, a := range place {
		h := s.hostIndex[a.Node]
		for m := a.GPUs; m != 0; m &= m - 1 {
			h.running[bits.TrailingZeros64(m)] = j
		}
		n := bits.OnesCount64(a.GPUs)
		h.free &^= a.GPUs
		h.freeCount -= n
		s.freeGPUs -= n
	}
	s.running++
	j.Place = place
	j.Start = now
	j.State = StateRunning

	run := j.RunDuration
	timeout := false
	if j.TimeLimit > 0 && run > j.TimeLimit {
		run = j.TimeLimit
		timeout = true
	}
	// A failed After leaves the zero Handle, which Kill's Cancel ignores.
	j.end, _ = s.engine.After(run, func() { s.naturalEnd(j, timeout) })
}

func (s *Scheduler) naturalEnd(j *Job, timeout bool) {
	switch {
	case timeout:
		j.State = StateTimeout
		j.ExitCode = 0
	case j.FailNaturally:
		j.State = StateFailed
		j.ExitCode = j.NaturalExitCode
		if j.ExitCode == 0 {
			j.ExitCode = 1
		}
	default:
		j.State = StateCompleted
		j.ExitCode = 0
	}
	j.End = s.engine.Now()
	s.release(j)
	s.finish(j)
	s.queuePass()
}

// release frees the GPUs the job still holds.
func (s *Scheduler) release(j *Job) {
	s.running--
	for _, a := range j.Place {
		h := s.hostIndex[a.Node]
		if h == nil {
			continue
		}
		for m := a.GPUs; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); h.running[i] == j {
				h.running[i] = nil
				s.freeGPU(h, i)
			}
		}
	}
}

// freeGPU marks GPU i of h unallocated.
func (s *Scheduler) freeGPU(h *host, i int) {
	if h.free&(1<<i) != 0 {
		return
	}
	h.free |= 1 << i
	h.freeCount++
	if h.open() {
		s.freeGPUs++
	}
}

// setAvail sets the host's schedulable and online flags, moving its free
// GPUs in or out of the FreeGPUs total.
func (s *Scheduler) setAvail(h *host, schedulable, online bool) {
	if h.open() {
		s.freeGPUs -= h.freeCount
	}
	h.schedulable, h.online = schedulable, online
	if h.open() {
		s.freeGPUs += h.freeCount
	}
}

func (s *Scheduler) finish(j *Job) {
	s.records = append(s.records, j)
	if s.OnTerminal != nil {
		s.OnTerminal(j)
	}
}

// Kill terminates a running job with the given state and exit code at the
// current simulation time (used for GPU-error and node-failure kills).
// It is a no-op on non-running jobs.
func (s *Scheduler) Kill(j *Job, state JobState, exitCode int) {
	if j == nil || j.State != StateRunning {
		return
	}
	s.engine.Cancel(j.end)
	j.State = state
	j.ExitCode = exitCode
	j.End = s.engine.Now()
	s.release(j)
	s.finish(j)
	if state == StateNodeFail && s.cfg.RequeueOnNodeFail {
		clone := &Job{
			Name:            j.Name,
			User:            j.User,
			Partition:       j.Partition,
			GPUs:            j.GPUs,
			TimeLimit:       j.TimeLimit,
			RunDuration:     j.RunDuration,
			FailNaturally:   j.FailNaturally,
			NaturalExitCode: j.NaturalExitCode,
			ML:              j.ML,
		}
		// Submit assigns a fresh ID and submit time; requeued work starts
		// from scratch (no checkpoint).
		_ = s.Submit(clone)
	}
	s.queuePass()
}

// JobsOnNode returns the distinct jobs currently running on the node.
func (s *Scheduler) JobsOnNode(node string) []*Job {
	h := s.hostIndex[node]
	if h == nil {
		return nil
	}
	var out []*Job
	for _, j := range h.running {
		if j != nil && !slices.Contains(out, j) {
			out = append(out, j)
		}
	}
	slices.SortFunc(out, func(a, b *Job) int { return a.ID - b.ID })
	return out
}

// JobOnGPU returns the job running on (node, gpu), or nil.
func (s *Scheduler) JobOnGPU(node string, gpu int) *Job {
	h := s.hostIndex[node]
	if h == nil || gpu < 0 || gpu >= len(h.running) {
		return nil
	}
	return h.running[gpu]
}

// SetSchedulable marks a node as (not) accepting new jobs; running jobs are
// unaffected. Used at drain start/end.
func (s *Scheduler) SetSchedulable(node string, ok bool) {
	if h := s.hostIndex[node]; h != nil {
		s.setAvail(h, ok, h.online)
		if ok {
			s.queuePass()
		}
	}
}

// FailNode takes a node offline (reboot/hardware failure): every running job
// on it is killed with NODE_FAIL and the node stops hosting work.
func (s *Scheduler) FailNode(node string) {
	h := s.hostIndex[node]
	if h == nil {
		return
	}
	s.setAvail(h, false, false)
	for _, j := range s.JobsOnNode(node) {
		s.Kill(j, StateNodeFail, 1)
	}
}

// RestoreNode brings a node back online with all GPUs free.
func (s *Scheduler) RestoreNode(node string) {
	h := s.hostIndex[node]
	if h == nil {
		return
	}
	for i, j := range h.running {
		if j == nil {
			s.freeGPU(h, i)
		}
	}
	s.setAvail(h, true, true)
	s.queuePass()
}

// PendingCount returns the pending-queue length.
func (s *Scheduler) PendingCount() int { return len(s.pending) }

// RunningCount returns the number of distinct running jobs.
func (s *Scheduler) RunningCount() int { return s.running }

// Records returns the terminal job records accumulated so far. The returned
// slice is shared; callers must not mutate it.
func (s *Scheduler) Records() []*Job { return s.records }

// FreeGPUs returns the number of free GPUs on schedulable online hosts.
func (s *Scheduler) FreeGPUs() int { return s.freeGPUs }

// DrainPending cancels every still-pending job (end of measurement period).
func (s *Scheduler) DrainPending() {
	now := s.engine.Now()
	for _, j := range s.pending {
		j.State = StateCancelled
		j.End = now
		s.finish(j)
	}
	s.pending = nil
}
