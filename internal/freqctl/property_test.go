package freqctl

import (
	"testing"
	"testing/quick"

	"clumsy/internal/fault"
)

// TestControllerInvariants drives the controller with random fault
// sequences and checks its structural invariants: the level index stays in
// range, every packet is attributed to exactly one level, and the penalty
// accounting matches the switch count.
func TestControllerInvariants(t *testing.T) {
	f := func(seed uint64, burstiness uint8) bool {
		rng := fault.NewRNG(seed)
		c := newDefault()
		const packets = 5000
		for i := 0; i < packets; i++ {
			var faults uint64
			// Bursty fault pattern: mostly quiet with occasional storms
			// whose intensity depends on the current level.
			if rng.Intn(int(burstiness)+2) == 0 {
				faults = uint64(rng.Intn(10)) * uint64(1/c.CycleTime())
			}
			c.PacketDone(faults)
			cr := c.CycleTime()
			if cr != 1 && cr != 0.75 && cr != 0.5 && cr != 0.25 {
				return false
			}
		}
		var total uint64
		for _, n := range c.LevelPackets {
			total += n
		}
		if total != packets {
			return false
		}
		return c.PenaltyCycles == float64(c.Switches)*DefaultSwitchPenalty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
