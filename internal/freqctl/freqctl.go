// Package freqctl implements the dynamic frequency-adaptation scheme of
// Section 4: the processor observes parity failures over execution epochs
// of a fixed number of packets and steps the data-cache clock up or down
// through discrete frequency levels.
//
// After each epoch the fault count is compared with the count stored at the
// last frequency change: more than X1 (200%) of the stored rate steps the
// frequency down (toward safety), less than X2 (80%) steps it up (toward
// speed), anything between leaves it alone. Each change costs a small cycle
// penalty; no cache flush is needed.
package freqctl

import "errors"

// Defaults from the paper.
const (
	DefaultEpochPackets  = 100  // decision interval, in packets
	DefaultX1            = 2.0  // decrease-frequency threshold (200%)
	DefaultX2            = 0.8  // increase-frequency threshold (80%)
	DefaultSwitchPenalty = 10.0 // cycles per frequency change
)

// DefaultLevels are the available relative cycle times, fastest last:
// full frequency and the +50%, +100%, +300% over-clocked settings
// (Cr = 0.75, 0.5, 0.25).
func DefaultLevels() []float64 { return []float64{1, 0.75, 0.5, 0.25} }

// Decision reports the outcome of an epoch boundary.
//
//lint:exhaustive
type Decision int

const (
	Keep Decision = iota
	SpeedUp
	SlowDown
)

func (d Decision) String() string {
	switch d {
	case Keep:
		return "keep"
	case SpeedUp:
		return "speed up"
	case SlowDown:
		return "slow down"
	default:
		return "keep"
	}
}

// Controller is the adaptation state machine.
type Controller struct {
	levels        []float64 // descending cycle times (increasing frequency)
	epochPackets  int
	x1, x2        float64
	switchPenalty float64

	idx            int    // current level index
	storedFaults   uint64 // fault count at the last frequency change
	primed         bool   // a non-zero reference count has been stored
	packetsInEpoch int
	faultsInEpoch  uint64

	// Back-off: after a slow-down the controller waits a growing number
	// of epochs before probing a faster level again. This keeps the
	// scheme "mostly in the Cr = 0.5 region" (Section 5.4) instead of
	// bouncing 1:1 across the fault-rate knee.
	cooldown      int
	sinceSlowdown int

	// Minimum dwell (opt-in, default 0 = paper semantics): an operating-
	// point change is applied only when at least minDwell epochs have
	// passed since the last applied change. Suppressed decisions still
	// update the adaptation rule's reference state, so the dwelled
	// controller tracks the undamped one with a delay instead of
	// diverging.
	minDwell    int
	sinceChange int

	// Spatial escalation (opt-in): at each epoch boundary the controller
	// consults SpatialEvidence and forces a slow-down when the epoch saw
	// more than spatialLines distinct faulting lines or the disabled-
	// capacity fraction exceeds spatialFrac. This is the top rung of the
	// recovery ladder: faults spread across many lines (or eating the
	// cache) are an operating-point problem, not a per-line one.
	spatialLines int
	spatialFrac  float64

	// SpatialEvidence, if non-nil, is invoked once per epoch boundary and
	// returns the distinct faulting lines of the closing epoch and the
	// currently disabled capacity fraction.
	SpatialEvidence func() (distinctLines int, disabledFrac float64)

	// SpatialBackoffs counts slow-downs forced by spatial evidence.
	SpatialBackoffs int

	// OnDecision, if non-nil, observes every epoch-boundary evaluation:
	// the decision taken, whether the operating point changed, and the
	// cycle time in force after the decision. The telemetry layer hooks
	// this to count and trace DVS decisions; mid-epoch packets do not
	// invoke it.
	OnDecision func(d Decision, changed bool, cycleTime float64)

	// Switches counts frequency changes; PenaltyCycles accumulates the
	// switching cost, to be added to the run's execution cycles.
	Switches      int
	PenaltyCycles float64
	// LevelPackets records how many packets were processed at each level,
	// for reports such as "the dynamic scheme stays mostly in the Cr=0.5
	// region" (Section 5.4).
	LevelPackets []uint64
}

// NewWith returns a controller with explicit parameters. Levels must be
// given in strictly decreasing cycle-time order... i.e. strictly increasing
// frequency; the controller starts at levels[0].
func NewWith(levels []float64, epochPackets int, x1, x2, switchPenalty float64) (*Controller, error) {
	if len(levels) < 2 {
		return nil, errors.New("freqctl: need at least two frequency levels")
	}
	for i, l := range levels {
		if l <= 0 {
			return nil, errors.New("freqctl: non-positive cycle time level")
		}
		if i > 0 && l >= levels[i-1] {
			return nil, errors.New("freqctl: levels must strictly decrease in cycle time")
		}
	}
	if epochPackets < 1 {
		return nil, errors.New("freqctl: epoch must cover at least one packet")
	}
	if x1 <= x2 || x2 < 0 {
		return nil, errors.New("freqctl: thresholds must satisfy 0 <= X2 < X1")
	}
	if switchPenalty < 0 {
		return nil, errors.New("freqctl: negative switch penalty")
	}
	return &Controller{
		levels:        levels,
		epochPackets:  epochPackets,
		x1:            x1,
		x2:            x2,
		switchPenalty: switchPenalty,
		LevelPackets:  make([]uint64, len(levels)),
	}, nil
}

// CycleTime returns the currently selected relative cycle time.
func (c *Controller) CycleTime() float64 { return c.levels[c.idx] }

// SetMinDwell sets the minimum number of epochs between applied
// operating-point changes. Zero (the default) restores the paper's
// undamped semantics. The first change of a run is never suppressed.
func (c *Controller) SetMinDwell(epochs int) {
	if epochs < 0 {
		epochs = 0
	}
	c.minDwell = epochs
	c.sinceChange = epochs
}

// SetSpatialPolicy arms the spatial escalation triggers: maxLines bounds
// the distinct faulting lines per epoch, maxFrac the disabled-capacity
// fraction. A zero value disables the corresponding trigger.
func (c *Controller) SetSpatialPolicy(maxLines int, maxFrac float64) {
	c.spatialLines = maxLines
	c.spatialFrac = maxFrac
}

// PacketDone records the completion of one packet during which faults
// parity failures were observed. At epoch boundaries it evaluates the
// adaptation rule; it returns the decision taken and whether the operating
// point changed (in which case the caller must reprogram the cache clock
// and charge PenaltyCycles' latest increment).
func (c *Controller) PacketDone(faults uint64) (Decision, bool) {
	c.LevelPackets[c.idx]++
	c.faultsInEpoch += faults
	c.packetsInEpoch++
	if c.packetsInEpoch < c.epochPackets {
		return Keep, false
	}

	observed := c.faultsInEpoch
	c.packetsInEpoch = 0
	c.faultsInEpoch = 0
	c.sinceSlowdown++

	// Spatial evidence is consumed every epoch (whether or not it forces
	// anything) so the evidence provider's per-epoch window stays aligned
	// with the controller's.
	var spatialLines int
	var spatialFrac float64
	if c.SpatialEvidence != nil {
		spatialLines, spatialFrac = c.SpatialEvidence()
	}

	decision := Keep
	spatial := false
	if c.idx > 0 &&
		((c.spatialLines > 0 && spatialLines > c.spatialLines) ||
			(c.spatialFrac > 0 && spatialFrac > c.spatialFrac)) {
		// Faults are spread across many lines or have disabled a chunk of
		// the cache: escalate past the per-line actions and back the
		// operating point off regardless of the count-based rule.
		decision = SlowDown
		spatial = true
	} else {
		switch {
		case observed == 0:
			// A fault-free epoch: there is nothing to lose by probing the
			// next faster level.
			if c.idx < len(c.levels)-1 && c.sinceSlowdown >= c.cooldown {
				decision = SpeedUp
			}
		case !c.primed:
			// First faulty epoch: record the reference rate of the current
			// operating point instead of comparing against an empty history.
			c.storedFaults = observed
			c.primed = true
		case float64(observed) > c.x1*float64(c.storedFaults):
			// Too many faults relative to the last stable point: back off.
			if c.idx > 0 {
				decision = SlowDown
			}
		case float64(observed) < c.x2*float64(c.storedFaults):
			// Comfortably below the stored rate: try the next faster level.
			if c.idx < len(c.levels)-1 && c.sinceSlowdown >= c.cooldown {
				decision = SpeedUp
			}
		}
	}

	if decision == Keep {
		c.sinceChange++
		if c.OnDecision != nil {
			c.OnDecision(Keep, false, c.CycleTime())
		}
		return Keep, false
	}

	// The rule state advances for every non-Keep decision, applied or
	// dwell-suppressed: the stored reference is the previous epoch's fault
	// count (Section 4), clamped to one so a zero reference cannot wedge
	// the comparison, and a slow-down decision arms the exponential
	// re-probe back-off. Mirroring this state on suppressed decisions keeps
	// the dwelled rule identical to the undamped one: while the operating
	// points agree the two controllers emit the same decisions and differ
	// only in which of them they apply, so suppression delays changes
	// rather than retraining the rule.
	if decision == SlowDown {
		if c.cooldown == 0 {
			c.cooldown = 2
		} else if c.cooldown < 16 {
			c.cooldown *= 2
		}
		c.sinceSlowdown = 0
	}
	c.storedFaults = observed
	if c.storedFaults == 0 {
		c.storedFaults = 1
	}
	c.primed = true

	if c.minDwell > 0 && c.sinceChange < c.minDwell {
		c.sinceChange++
		if c.OnDecision != nil {
			c.OnDecision(decision, false, c.CycleTime())
		}
		return decision, false
	}

	if decision == SlowDown {
		c.idx--
		if spatial {
			c.SpatialBackoffs++
		}
	} else {
		c.idx++
	}
	c.sinceChange = 0
	c.Switches++
	c.PenaltyCycles += c.switchPenalty
	if c.OnDecision != nil {
		c.OnDecision(decision, true, c.CycleTime())
	}
	return decision, true
}
