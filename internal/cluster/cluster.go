// Package cluster is a deterministic virtual-time fleet simulator: N
// clumsy processor nodes behind a dispatcher, serving one packet workload
// under fault injection. It turns the paper's single-processor story —
// "one cache survives faults" — into the ROADMAP's fleet story: degraded
// nodes keep serving at reduced capability, flows rehash around draining
// and dead nodes, and admission control sheds load when fleet capacity
// falls below demand.
//
// The simulation is a single-goroutine discrete-event loop over virtual
// ticks (simulated cycles, the same unit the engine charges). Every source
// of randomness — arrival gaps, per-node fault streams — draws from seeded
// forks of the deterministic RNG in internal/fault, so a fixed-seed fleet
// run is byte-identical across invocations; the package is part of the
// detwalk deterministic core and is map-range-free, goroutine-free, and
// wall-clock-free.
//
// Each node is a real clumsy.Node: the full engine, cache hierarchy, fault
// regime, and escalating recovery ladder of the batch simulator, kept live
// between packets. The ladder's outputs (contained drops, disabled lines,
// watchdog kills) feed the health state machine in health.go; dispatch and
// failover live in dispatch.go and fleet.go; the SLO report in report.go.
package cluster

import (
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/workload"
)

// DispatchPolicy selects how admitted packets pick a node.
type DispatchPolicy int

const (
	// DispatchFlowHash sends each flow (5-tuple) to a node via
	// highest-random-weight hashing: flows stick to their node, and when
	// the eligible set shrinks only the flows of the lost node move.
	DispatchFlowHash DispatchPolicy = iota
	// DispatchLeastLoaded sends each packet to the eligible node with the
	// shortest queue (ties to the lowest index).
	DispatchLeastLoaded
)

func (p DispatchPolicy) String() string {
	switch p {
	case DispatchLeastLoaded:
		return "least"
	default:
		return "flow"
	}
}

// ParseDispatchPolicy parses the CLI spelling of a dispatch policy.
func ParseDispatchPolicy(s string) (DispatchPolicy, error) {
	switch s {
	case "", "flow":
		return DispatchFlowHash, nil
	case "least":
		return DispatchLeastLoaded, nil
	default:
		return DispatchFlowHash, fmt.Errorf("cluster: unknown dispatch policy %q (want flow or least)", s)
	}
}

// The fleet's fixed load and service-level objective.
const (
	// utilization is the offered load as a fraction of the fault-free
	// fleet capacity; it sets the mean inter-arrival gap.
	utilization = 0.6
	// sloLatencyDelays bounds the per-packet queueing+service latency, in
	// golden per-packet delays.
	sloLatencyDelays = 10
	// sloDropRate bounds the fleet drop rate: the fraction of arrivals
	// that were shed or dropped by node containment.
	sloDropRate = 0.05
)

// Config describes one fleet simulation.
type Config struct {
	App     string // NetBench application served by every node
	Nodes   int    // fleet size (0 = 8)
	Packets int    // fleet arrivals to simulate (0 = 2000)
	Seed    uint64 // fleet seed: workload trace, arrival gaps, per-node fault streams

	// Workload, when non-nil, applies the workload-v2 spec: the packet
	// stream is mutated (malformed wire images, flow churn) exactly as a
	// batch run would, and arrival gaps are modulated by the temporal
	// shape's intensity — a flash crowd compresses gaps 4x inside its
	// window. Nil serves the canonical trace at the flat rate.
	Workload *workload.Spec

	QueueCap int            // per-node queue bound (0 = 64)
	Dispatch DispatchPolicy // flow-hash (default) or least-loaded

	// FaultyNodes is how many nodes (the highest indices) run the hostile
	// fault configuration: the permanent stuck-at regime at FaultyScale.
	// The remaining nodes run the paper regime at FaultScale.
	FaultyNodes int
	FaultScale  float64 // healthy nodes' fault-rate multiplier (0 = 1)
	FaultyScale float64 // hostile nodes' fault-rate multiplier (0 = 40)
	// FaultyPreDisable pre-disables this capacity fraction of each hostile
	// node's L1D as pinned (hard) frame damage. Pinned frames survive
	// drain-and-re-clock, so a value above the drain bar makes the node
	// terminal: it can never pass probation and dies once its drain budget
	// is spent. Zero means no hard damage.
	FaultyPreDisable float64

	CycleTime float64               // static operating point of every node (0 = 0.5)
	Dynamic   bool                  // per-node dynamic frequency controller instead
	Recovery  clumsy.RecoveryPolicy // node fatal-error policy (fleet default: degrade)
	// NodeMaxDropRate, forwarded to every node, is the node-level suicide
	// threshold (0 = nodes never abort on drop rate; the fleet health
	// machine governs their lifecycle).
	NodeMaxDropRate float64

	Health HealthConfig
}

func (c Config) withDefaults() Config {
	if c.App == "" {
		c.App = "route"
	}
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Packets <= 0 {
		c.Packets = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.FaultyNodes < 0 {
		c.FaultyNodes = 0
	}
	if c.FaultyNodes > c.Nodes {
		c.FaultyNodes = c.Nodes
	}
	if c.FaultScale <= 0 {
		c.FaultScale = 1
	}
	if c.FaultyScale <= 0 {
		c.FaultyScale = 40
	}
	if c.CycleTime <= 0 {
		c.CycleTime = 0.5
	}
	if c.Recovery == clumsy.RecoverAbort {
		c.Recovery = clumsy.RecoverDegrade
	}
	c.Health = c.Health.withDefaults()
	return c
}

// nodeConfig builds the clumsy.Config of one node. Hostile nodes (index
// >= Nodes-FaultyNodes) get the permanent stuck-at regime at the elevated
// scale; the rest run the paper regime. Every node forks its fault stream
// off its own seed, so streams are independent across the fleet.
func (c Config) nodeConfig(idx int) clumsy.Config {
	cfg := clumsy.Config{
		App:         c.App,
		Seed:        c.Seed + uint64(idx)*0x9e3779b97f4a7c15 + 1,
		CycleTime:   c.CycleTime,
		Dynamic:     c.Dynamic,
		Detection:   cache.DetectionParity,
		Strikes:     2,
		FaultScale:  c.FaultScale,
		Planes:      clumsy.PlaneData,
		Recovery:    c.Recovery,
		MaxDropRate: c.NodeMaxDropRate,
	}
	if idx >= c.Nodes-c.FaultyNodes {
		cfg.Regime = clumsy.RegimePermanent
		cfg.FaultScale = c.FaultyScale
		cfg.PreDisableFrac = c.FaultyPreDisable
	}
	return cfg
}
