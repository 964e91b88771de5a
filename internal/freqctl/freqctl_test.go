package freqctl

import "testing"

// newDefault returns a controller with the paper's default parameters,
// starting at full-swing operation (the first level).
func newDefault() *Controller {
	c, err := New(DefaultX1, DefaultX2)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return c
}

// runEpoch feeds a full epoch of packets, each observing the given fault
// count, and returns the final decision.
func runEpoch(c *Controller, perPacketFaults uint64) Decision {
	var d Decision
	for i := 0; i < DefaultEpochPackets; i++ {
		d = c.PacketDone(perPacketFaults)
	}
	return d
}

func TestStartsAtFullCycleTime(t *testing.T) {
	c := newDefault()
	if c.CycleTime() != 1 {
		t.Fatalf("initial cycle time = %v, want 1", c.CycleTime())
	}
}

func TestNoDecisionMidEpoch(t *testing.T) {
	c := newDefault()
	decisions := 0
	c.OnDecision = func(Decision) { decisions++ }
	runEpoch(c, 0) // -> 0.75
	for i := 0; i < DefaultEpochPackets-1; i++ {
		if d := c.PacketDone(100); d != Keep || decisions != 1 || c.CycleTime() != 0.75 {
			t.Fatalf("mid-epoch decision at packet %d: %v (%d decisions, Cr %g)", i, d, decisions, c.CycleTime())
		}
	}
}

func TestFaultFreeRampsToFastest(t *testing.T) {
	c := newDefault()
	levels := []float64{0.75, 0.5, 0.25}
	for _, want := range levels {
		if d := runEpoch(c, 0); d != SpeedUp {
			t.Fatalf("fault-free epoch should speed up, got %v", d)
		}
		if c.CycleTime() != want {
			t.Fatalf("cycle time = %v, want %v", c.CycleTime(), want)
		}
	}
	// At the fastest level, fault-free epochs keep.
	if d := runEpoch(c, 0); d != Keep {
		t.Fatalf("at fastest level expected Keep, got %v", d)
	}
	if c.Switches != 3 {
		t.Fatalf("switches = %d, want 3", c.Switches)
	}
	if c.PenaltyCycles != 3*DefaultSwitchPenalty {
		t.Fatalf("penalty = %v", c.PenaltyCycles)
	}
}

func TestFaultBurstBacksOff(t *testing.T) {
	c := newDefault()
	runEpoch(c, 0) // to 0.75, stored = 0
	if d := runEpoch(c, 5); d != SlowDown {
		t.Fatalf("faults after a fault-free reference should slow down, got %v", d)
	}
	if c.CycleTime() != 1 {
		t.Fatalf("cycle time = %v, want back at 1", c.CycleTime())
	}
}

// TestSlowDownArmsCooldown: a slow-down arms the exponential re-probe
// back-off, so a fault-free epoch right after it keeps the level and the
// next one probes the faster level again.
func TestSlowDownArmsCooldown(t *testing.T) {
	c := newDefault()
	for i, want := range []struct {
		faults uint64
		d      Decision
		cr     float64
	}{
		{0, SpeedUp, 0.75},
		{50, SlowDown, 1},
		{0, Keep, 1}, // under the cooldown
		{0, SpeedUp, 0.75},
	} {
		if d := runEpoch(c, want.faults); d != want.d || c.CycleTime() != want.cr {
			t.Fatalf("epoch %d: %v at Cr %g, want %v at Cr %g", i+1, d, c.CycleTime(), want.d, want.cr)
		}
	}
	if c.Switches != 3 || c.PenaltyCycles != 3*DefaultSwitchPenalty {
		t.Fatalf("%d switches, %g penalty cycles, want 3", c.Switches, c.PenaltyCycles)
	}
}

func TestCannotSlowBelowFirstLevel(t *testing.T) {
	c := newDefault()
	// At level 0 with stored 0, any faults hit the slow-down branch but
	// there is nowhere to go.
	if d := runEpoch(c, 50); d != Keep || c.Switches != 0 {
		t.Fatalf("at slowest level expected Keep, got %v after %d switches", d, c.Switches)
	}
}

func TestHysteresisBand(t *testing.T) {
	c := newDefault()
	runEpoch(c, 0)  // -> 0.75, stored 0
	runEpoch(c, 10) // faults: slow down -> 1, stored = 1000
	if c.CycleTime() != 1 {
		t.Fatalf("cycle time = %v", c.CycleTime())
	}
	// Observed equal to stored (ratio 1, between X2=0.8 and X1=2): keep.
	if d := runEpoch(c, 10); d != Keep {
		t.Fatalf("in-band epoch should keep, got %v", d)
	}
}

func TestOscillationBetweenAdjacentLevels(t *testing.T) {
	// The paper's rule bounces between 0.5 and 0.25 when the fault rate
	// jumps ~8x across that boundary: the dynamic scheme "stays mostly in
	// the Cr = 0.5 region" without beating the static setting.
	c := newDefault()
	runEpoch(c, 0) // -> 0.75
	runEpoch(c, 0) // -> 0.5
	runEpoch(c, 0) // -> 0.25
	seen50, seen25 := 0, 0
	for i := 0; i < 20; i++ {
		var faults uint64
		if c.CycleTime() == 0.25 {
			faults = 8
		} else {
			faults = 1
		}
		runEpoch(c, faults)
		switch c.CycleTime() {
		case 0.5:
			seen50++
		case 0.25:
			seen25++
		default:
			t.Fatalf("wandered to level %v", c.CycleTime())
		}
	}
	if seen50 == 0 || seen25 == 0 {
		t.Fatalf("expected oscillation around the knee, got 0.5:%d 0.25:%d", seen50, seen25)
	}
}

func TestLevelPacketsAccounting(t *testing.T) {
	c := newDefault()
	runEpoch(c, 0)
	runEpoch(c, 0)
	total := uint64(0)
	for _, n := range c.LevelPackets {
		total += n
	}
	if total != 2*DefaultEpochPackets {
		t.Fatalf("level packets total %d, want %d", total, 2*DefaultEpochPackets)
	}
	if c.LevelPackets[0] != DefaultEpochPackets || c.LevelPackets[1] != DefaultEpochPackets {
		t.Fatalf("level distribution %v", c.LevelPackets)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0.8, 2); err == nil {
		t.Error("X1 <= X2 should be rejected")
	}
	if _, err := New(2, 0.8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSpatialEvidenceArmsBounds: with SpatialEvidence set, evidence past
// either fixed bound forces a slow-down whatever the fault count says,
// and evidence at the bounds does not.
func TestSpatialEvidenceArmsBounds(t *testing.T) {
	for _, tc := range []struct {
		lines int
		frac  float64
		want  Decision
	}{
		{SpatialLines, SpatialDisabledFrac, SpeedUp},
		{SpatialLines + 1, 0, SlowDown},
		{0, SpatialDisabledFrac * 2, SlowDown},
	} {
		c := newDefault()
		runEpoch(c, 0) // a fault-free epoch: up to Cr = 0.75
		c.SpatialEvidence = func() (int, float64) { return tc.lines, tc.frac }
		if d := runEpoch(c, 0); d != tc.want || (d == SlowDown) != (c.SpatialBackoffs == 1) {
			t.Errorf("evidence %d lines, %g disabled: %v with %d spatial back-offs, want %v",
				tc.lines, tc.frac, d, c.SpatialBackoffs, tc.want)
		}
	}
}

func TestDecisionString(t *testing.T) {
	if Keep.String() != "keep" || SpeedUp.String() != "speed up" || SlowDown.String() != "slow down" {
		t.Fatal("unexpected Decision strings")
	}
}
