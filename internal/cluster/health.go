package cluster

// NodeState is the fleet's view of one node's service life. The state
// machine is driven by windowed health evidence from the node's recovery
// ladder (contained-drop rate, disabled-line fraction, watchdog kills)
// and moves with hysteresis so one bad window does not flap a node out of
// rotation:
//
//	Healthy ──(drop rate or disabled lines over the degrade bar)──▶ Degraded
//	Degraded ─(evidence over the drain bar, or no recovery)──────▶ Draining
//	Degraded ─(healthyWindows consecutive clean windows)─────────▶ Healthy
//	Draining ─(queue empty; re-clock applied)────────────────────▶ Probation
//	Draining ─(re-clock budget exhausted)────────────────────────▶ Dead
//	Probation ─(probationWindows served without drain evidence)──▶ Healthy
//	Probation ─(evidence over the drain bar again)───────────────▶ Draining
//	any ──────(node fatal / suicide)─────────────────────────────▶ Dead
//
// Healthy, Degraded, and Probation nodes take traffic; Draining nodes
// finish their queue but receive no new packets; Dead nodes are out and
// their queued packets fail over to survivors.
//
//lint:exhaustive
type NodeState int

const (
	StateHealthy NodeState = iota
	StateDegraded
	StateDraining
	StateProbation
	StateDead
)

func (s NodeState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateProbation:
		return "probation"
	case StateDead:
		return "dead"
	default:
		return "invalid"
	}
}

// eligible reports whether a node in this state accepts new packets.
func (s NodeState) eligible() bool {
	return s == StateHealthy || s == StateDegraded || s == StateProbation
}

// The health state machine's fixed bars and steps.
const (
	// degradeDropRate and drainDropRate are the windowed contained-drop
	// rates at or above which a healthy node is marked degraded and a
	// degraded node is taken out for drain-and-re-clock.
	degradeDropRate = 0.04
	drainDropRate   = 0.20
	// degradeDisabledFrac and drainDisabledFrac are disabled-line
	// capacity fractions with the same roles. Disabled lines are the
	// ladder's spatial evidence: with parity containment a sick cache can
	// run drop-free while steadily losing capacity.
	degradeDisabledFrac = 0.03
	drainDisabledFrac   = 0.06
	// healthyWindows is the hysteresis on recovery: a degraded node must
	// post this many consecutive clean windows to be healthy again.
	healthyWindows = 2
	// probationWindows is how many windows of packets a re-clocked node
	// must serve without re-tripping the drain bar before it counts as
	// healthy.
	probationWindows = 2
	// reclockStep is added to the node's relative cycle time at each
	// drain-complete re-clock. Slower cycles give marginal cells their
	// sense window back and re-enable disabled frames.
	reclockStep = 0.125
)

// HealthConfig tunes the health state machine.
type HealthConfig struct {
	// Window is the assessment window in packets: the node's evidence is
	// re-evaluated every Window packets it serves (0 = 64).
	Window int
	// MaxCycleTime caps re-clocking (0 = 0.75). A node that needs to
	// drain again at the cap has nothing left to trade and is dead. The
	// cap is deliberately below the stuck-at model's highest critical
	// threshold (0.8): at full-swing cycle time every weak cell is silent
	// and no node could ever be retired.
	MaxCycleTime float64
	// MaxDrains bounds the drain-and-re-clock attempts per node (0 = 3).
	MaxDrains int
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.Window <= 0 {
		h.Window = 64
	}
	if h.MaxCycleTime <= 0 {
		h.MaxCycleTime = 0.75
	}
	if h.MaxDrains <= 0 {
		h.MaxDrains = 3
	}
	return h
}

// windowEvidence is the differenced health evidence of one assessment
// window.
type windowEvidence struct {
	attempted    int
	contained    int
	disabledFrac float64 // instantaneous, not differenced
}

func (w windowEvidence) dropRate() float64 {
	if w.attempted == 0 {
		return 0
	}
	return float64(w.contained) / float64(w.attempted)
}

// verdict classifies one window against the health bars.
//
//lint:exhaustive
type verdict int

const (
	verdictClean verdict = iota
	verdictDegrade
	verdictDrain
)

func judge(w windowEvidence) verdict {
	if w.dropRate() >= drainDropRate || w.disabledFrac >= drainDisabledFrac {
		return verdictDrain
	}
	if w.dropRate() >= degradeDropRate || w.disabledFrac >= degradeDisabledFrac {
		return verdictDegrade
	}
	return verdictClean
}
