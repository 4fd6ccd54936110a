// Package nodesim models a Delta GPU node's failure-recovery lifecycle:
// Up -> Draining -> Rebooting -> health check -> Up again, or -> Failed
// awaiting a GPU swap when the post-reboot health check fails. Every service
// interval is recorded in a downtime ledger, which is the input to the
// paper's availability analysis (§V-C, Figure 2).
package nodesim

import (
	"errors"
	"fmt"
	"time"

	"gpuresilience/internal/gpusim"
	"gpuresilience/internal/randx"
	"gpuresilience/internal/simclock"
)

// State is the scheduling state of a node.
type State int

// Node lifecycle states.
const (
	StateUp State = iota + 1
	StateDraining
	StateRebooting
	StateFailed // failed post-reboot health check; awaiting hardware swap
)

// String returns a short label for the state.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateRebooting:
		return "rebooting"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterizes node recovery timing. Durations are sampled from
// lognormal distributions specified by their mean and median, matching how
// repair times are reported (mean 0.88 h in §V-C).
type Config struct {
	// DrainMean/DrainMedian parameterize the drain phase (waiting out or
	// clearing active work before reboot).
	DrainMean   time.Duration
	DrainMedian time.Duration // see DrainMean

	// RebootMean/RebootMedian parameterize the reboot + post-reboot health
	// check phase.
	RebootMean   time.Duration
	RebootMedian time.Duration // see RebootMean

	// HealthCheckFailProb is the probability the post-reboot health check
	// fails, leaving the node Failed until a hardware swap completes.
	HealthCheckFailProb float64

	// SwapMean/SwapMedian parameterize the GPU hardware swap performed when
	// the health check fails.
	SwapMean   time.Duration
	SwapMedian time.Duration // see SwapMean
}

// DefaultConfig returns recovery timing calibrated so the overall mean
// unavailability interval is ~0.88 h (the paper's MTTR).
func DefaultConfig() Config {
	return Config{
		DrainMean:           22 * time.Minute,
		DrainMedian:         9 * time.Minute,
		RebootMean:          26 * time.Minute,
		RebootMedian:        22 * time.Minute,
		HealthCheckFailProb: 0.01,
		SwapMean:            4 * time.Hour,
		SwapMedian:          3 * time.Hour,
	}
}

func (c Config) validate() error {
	pairs := []struct {
		name         string
		mean, median time.Duration
	}{
		{"drain", c.DrainMean, c.DrainMedian},
		{"reboot", c.RebootMean, c.RebootMedian},
		{"swap", c.SwapMean, c.SwapMedian},
	}
	for _, p := range pairs {
		if p.median <= 0 || p.mean <= p.median {
			return fmt.Errorf("nodesim: %s time needs mean > median > 0", p.name)
		}
	}
	if c.HealthCheckFailProb < 0 || c.HealthCheckFailProb > 1 {
		return errors.New("nodesim: health check probability out of [0,1]")
	}
	return nil
}

// Downtime is one recorded unavailability interval.
type Downtime struct {
	Start  time.Time // when the node left service
	End    time.Time // when it returned
	Reason string    // what pulled it, e.g. "xid79"
	// Swapped reports the interval included a GPU hardware swap.
	Swapped bool
}

// Duration returns the interval length.
func (d Downtime) Duration() time.Duration { return d.End.Sub(d.Start) }

// Node is one GPU node.
type Node struct {
	name   string
	gpus   []*gpusim.GPU
	fabric *gpusim.Fabric
	gpuCfg gpusim.Config

	cfg    Config
	engine *simclock.Engine
	rng    *randx.Stream

	// gen is the health generation every device of the node bumps; see
	// gpusim.GPU.SetGeneration.
	gen uint64

	state        State
	serviceStart time.Time
	ledger       []Downtime
	serviced     int
	swaps        int

	// OnStateChange, if set, is invoked after every state transition.
	OnStateChange func(n *Node, from, to State)
}

// New builds a node with numGPUs A100s and an NVLink fabric.
func New(name string, numGPUs int, gpuCfg gpusim.Config, cfg Config,
	engine *simclock.Engine, rng *randx.Stream) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if engine == nil || rng == nil {
		return nil, errors.New("nodesim: nil engine or rng")
	}
	fabric, err := gpusim.NewFabric(numGPUs, gpuCfg.NVLink)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	n := &Node{
		name:   name,
		fabric: fabric,
		gpuCfg: gpuCfg,
		cfg:    cfg,
		engine: engine,
		rng:    rng,
		state:  StateUp,
	}
	n.gpus = make([]*gpusim.GPU, numGPUs)
	for i := range n.gpus {
		g, err := gpusim.New(name, i, gpuCfg)
		if err != nil {
			return nil, err
		}
		g.SetGeneration(&n.gen)
		n.gpus[i] = g
	}
	return n, nil
}

// Name returns the node host name.
func (n *Node) Name() string { return n.name }

// State returns the current lifecycle state.
func (n *Node) State() State { return n.state }

// Up reports whether the node is schedulable.
func (n *Node) Up() bool { return n.state == StateUp }

// GPUs returns the node's GPU devices (the slice is owned by the node).
func (n *Node) GPUs() []*gpusim.GPU { return n.gpus }

// GPU returns device i, or nil if out of range.
func (n *Node) GPU(i int) *gpusim.GPU {
	if i < 0 || i >= len(n.gpus) {
		return nil
	}
	return n.gpus[i]
}

// DeviceGeneration returns a counter that changes whenever any of the
// node's devices changes failure mark, remap failures or spare rows.
func (n *Node) DeviceGeneration() uint64 { return n.gen }

// NumGPUs returns the GPU count of the node.
func (n *Node) NumGPUs() int { return len(n.gpus) }

// Fabric returns the node's NVLink fabric.
func (n *Node) Fabric() *gpusim.Fabric { return n.fabric }

// Ledger returns a copy of the downtime ledger.
func (n *Node) Ledger() []Downtime {
	out := make([]Downtime, len(n.ledger))
	copy(out, n.ledger)
	return out
}

// ServiceCount returns how many service cycles completed.
func (n *Node) ServiceCount() int { return n.serviced }

// SwapCount returns how many GPU hardware swaps were performed.
func (n *Node) SwapCount() int { return n.swaps }

// BeginService starts a drain-reboot-healthcheck cycle in response to an
// error that requires node recovery. The SRE health checks detect such
// errors promptly, so service begins at the current simulation time. If the
// node is already in service the request coalesces into the ongoing cycle
// and BeginService returns false.
func (n *Node) BeginService(reason string) bool {
	if n.state != StateUp {
		return false
	}
	n.serviceStart = n.engine.Now()
	n.transition(StateDraining)
	drain := n.sample(n.cfg.DrainMean, n.cfg.DrainMedian)
	n.mustAfter(drain, func() { n.beginReboot(reason) })
	return true
}

// BeginServiceUntil starts an extended service cycle: the node drains until
// at least `until` (an ongoing error storm's expected end), then reboots and
// health-checks. SREs hold storming nodes out of service rather than letting
// them flap. Returns false if the node is already out of service.
func (n *Node) BeginServiceUntil(reason string, until time.Time) bool {
	if n.state != StateUp {
		return false
	}
	n.serviceStart = n.engine.Now()
	n.transition(StateDraining)
	drain := n.sample(n.cfg.DrainMean, n.cfg.DrainMedian)
	if end := n.engine.Now().Add(drain); end.Before(until) {
		drain = until.Sub(n.engine.Now())
	}
	n.mustAfter(drain, func() { n.beginReboot(reason) })
	return true
}

func (n *Node) beginReboot(reason string) {
	n.transition(StateRebooting)
	reboot := n.sample(n.cfg.RebootMean, n.cfg.RebootMedian)
	n.mustAfter(reboot, func() { n.healthCheck(reason) })
}

func (n *Node) healthCheck(reason string) {
	if n.rng.Bool(n.cfg.HealthCheckFailProb) {
		// Post-reboot health check failed: swap the most suspect GPU.
		n.transition(StateFailed)
		swap := n.sample(n.cfg.SwapMean, n.cfg.SwapMedian)
		n.mustAfter(swap, func() { n.completeSwap(reason) })
		return
	}
	n.returnToService(reason, false)
}

func (n *Node) completeSwap(reason string) {
	// Swap the GPU with the worst memory state (most remap failures, then
	// fewest spare rows), which is how SREs pick the device to pull.
	worst := 0
	for i, g := range n.gpus {
		if g.Failed() ||
			g.Memory.RemapFailures() > n.gpus[worst].Memory.RemapFailures() ||
			(g.Memory.RemapFailures() == n.gpus[worst].Memory.RemapFailures() &&
				g.Memory.SpareRowsLeft() < n.gpus[worst].Memory.SpareRowsLeft()) {
			worst = i
		}
	}
	if err := n.gpus[worst].Replace(n.gpuCfg); err != nil {
		// Replacement config was validated at construction; failure here is
		// a programming error, but keep the node failed rather than panic.
		return
	}
	n.swaps++
	n.returnToService(reason, true)
}

func (n *Node) returnToService(reason string, swapped bool) {
	// The reboot restores recoverable component state on every device
	// (hung GSPs, locked PMU clock management).
	for _, g := range n.gpus {
		g.ResetComponents()
	}
	n.ledger = append(n.ledger, Downtime{
		Start:   n.serviceStart,
		End:     n.engine.Now(),
		Reason:  reason,
		Swapped: swapped,
	})
	n.serviced++
	n.transition(StateUp)
}

// ForceReplace immediately pulls GPU i and swaps it (SRE intervention on a
// known-bad device, e.g. the pre-operational faulty GPU). It runs a full
// service cycle with a swap.
func (n *Node) ForceReplace(reason string) bool {
	if n.state != StateUp {
		return false
	}
	n.serviceStart = n.engine.Now()
	n.transition(StateFailed)
	swap := n.sample(n.cfg.SwapMean, n.cfg.SwapMedian)
	n.mustAfter(swap, func() { n.completeSwap(reason) })
	return true
}

func (n *Node) transition(to State) {
	from := n.state
	n.state = to
	if n.OnStateChange != nil {
		n.OnStateChange(n, from, to)
	}
}

func (n *Node) sample(mean, median time.Duration) time.Duration {
	hours := n.rng.LogNormalMeanP50(mean.Hours(), median.Hours())
	return time.Duration(hours * float64(time.Hour))
}

func (n *Node) mustAfter(d time.Duration, fn func()) {
	if _, err := n.engine.After(d, fn); err != nil {
		// After only fails for negative durations, which sample() cannot
		// produce; fall back to running at the next instant.
		_, _ = n.engine.Schedule(n.engine.Now(), fn)
	}
}
