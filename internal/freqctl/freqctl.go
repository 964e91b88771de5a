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

// Spatial escalation bounds, in force once SpatialEvidence is set: more
// distinct faulting lines per epoch than SpatialLines, or a disabled-
// capacity fraction above SpatialDisabledFrac, forces a slow-down.
const (
	SpatialLines        = 8
	SpatialDisabledFrac = 0.125
)

// DefaultLevels are the available relative cycle times, fastest last:
// full frequency and the +50%, +100%, +300% over-clocked settings
// (Cr = 0.75, 0.5, 0.25).
func DefaultLevels() []float64 { return []float64{1, 0.75, 0.5, 0.25} }

// levels are the controller's cycle times; LevelPackets is indexed alike.
var levels = DefaultLevels()

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
	epochPackets int
	x1, x2       float64

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

	// SpatialEvidence, if non-nil, arms spatial escalation: it is invoked
	// once per epoch boundary and returns the distinct faulting lines of
	// the closing epoch and the currently disabled capacity fraction, and
	// the controller forces a slow-down when either exceeds its bound
	// (SpatialLines, SpatialDisabledFrac). This is the top rung of the
	// recovery ladder: faults spread across many lines (or eating the
	// cache) are an operating-point problem, not a per-line one.
	SpatialEvidence func() (distinctLines int, disabledFrac float64)

	// SpatialBackoffs counts slow-downs forced by spatial evidence.
	SpatialBackoffs int

	// OnDecision, if non-nil, observes the decision of every epoch
	// boundary; mid-epoch packets do not invoke it. The telemetry layer
	// hooks this to count DVS decisions.
	OnDecision func(d Decision)

	// Switches counts frequency changes; PenaltyCycles accumulates the
	// switching cost, to be added to the run's execution cycles.
	Switches      int
	PenaltyCycles float64
	// LevelPackets records how many packets were processed at each level,
	// for reports such as "the dynamic scheme stays mostly in the Cr=0.5
	// region" (Section 5.4).
	LevelPackets []uint64
}

// New returns a controller over the paper's levels and switch penalty
// with the given epoch and thresholds. It starts at full-swing operation,
// the first level.
func New(epochPackets int, x1, x2 float64) (*Controller, error) {
	if epochPackets < 1 {
		return nil, errors.New("freqctl: epoch must cover at least one packet")
	}
	if x1 <= x2 || x2 < 0 {
		return nil, errors.New("freqctl: thresholds must satisfy 0 <= X2 < X1")
	}
	return &Controller{
		epochPackets: epochPackets,
		x1:           x1,
		x2:           x2,
		LevelPackets: make([]uint64, len(levels)),
	}, nil
}

// CycleTime returns the currently selected relative cycle time.
func (c *Controller) CycleTime() float64 { return levels[c.idx] }

// PacketDone records the completion of one packet during which faults
// parity failures were observed. At epoch boundaries it evaluates the
// adaptation rule and returns its decision; it returns Keep mid-epoch.
// Any other decision has changed the operating point: the caller must
// reprogram the cache clock and charge PenaltyCycles' latest increment.
func (c *Controller) PacketDone(faults uint64) Decision {
	c.LevelPackets[c.idx]++
	c.faultsInEpoch += faults
	c.packetsInEpoch++
	if c.packetsInEpoch < c.epochPackets {
		return Keep
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
	if c.idx > 0 && (spatialLines > SpatialLines || spatialFrac > SpatialDisabledFrac) {
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
			if c.idx < len(levels)-1 && c.sinceSlowdown >= c.cooldown {
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
			if c.idx < len(levels)-1 && c.sinceSlowdown >= c.cooldown {
				decision = SpeedUp
			}
		}
	}

	if c.OnDecision != nil {
		c.OnDecision(decision)
	}
	if decision == Keep {
		return Keep
	}

	// Every change stores the previous epoch's fault count as the new
	// reference (Section 4), clamped to one so a zero reference cannot
	// wedge the comparison, and a slow-down arms the exponential re-probe
	// back-off.
	if decision == SlowDown {
		if c.cooldown == 0 {
			c.cooldown = 2
		} else if c.cooldown < 16 {
			c.cooldown *= 2
		}
		c.sinceSlowdown = 0
		c.idx--
		if spatial {
			c.SpatialBackoffs++
		}
	} else {
		c.idx++
	}
	c.storedFaults = max(observed, 1)
	c.primed = true
	c.Switches++
	c.PenaltyCycles += DefaultSwitchPenalty
	return decision
}
