package freqctl

import "testing"

// newDefault returns a controller with the paper's default parameters,
// starting at full-swing operation (the first level).
func newDefault() *Controller {
	c, err := NewWith(DefaultLevels(), DefaultEpochPackets, DefaultX1, DefaultX2, DefaultSwitchPenalty)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return c
}

// runEpoch feeds a full epoch of packets, each observing the given fault
// count, and returns the final decision.
func runEpoch(c *Controller, perPacketFaults uint64) (Decision, bool) {
	var d Decision
	var changed bool
	for i := 0; i < DefaultEpochPackets; i++ {
		d, changed = c.PacketDone(perPacketFaults)
	}
	return d, changed
}

func TestStartsAtFullCycleTime(t *testing.T) {
	c := newDefault()
	if c.CycleTime() != 1 {
		t.Fatalf("initial cycle time = %v, want 1", c.CycleTime())
	}
}

func TestNoDecisionMidEpoch(t *testing.T) {
	c := newDefault()
	for i := 0; i < DefaultEpochPackets-1; i++ {
		if d, changed := c.PacketDone(100); d != Keep || changed {
			t.Fatalf("mid-epoch decision at packet %d: %v", i, d)
		}
	}
}

func TestFaultFreeRampsToFastest(t *testing.T) {
	c := newDefault()
	levels := []float64{0.75, 0.5, 0.25}
	for _, want := range levels {
		d, changed := runEpoch(c, 0)
		if d != SpeedUp || !changed {
			t.Fatalf("fault-free epoch should speed up, got %v", d)
		}
		if c.CycleTime() != want {
			t.Fatalf("cycle time = %v, want %v", c.CycleTime(), want)
		}
	}
	// At the fastest level, fault-free epochs keep.
	if d, changed := runEpoch(c, 0); d != Keep || changed {
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
	if d, _ := runEpoch(c, 5); d != SlowDown {
		t.Fatalf("faults after a fault-free reference should slow down, got %v", d)
	}
	if c.CycleTime() != 1 {
		t.Fatalf("cycle time = %v, want back at 1", c.CycleTime())
	}
}

func TestCannotSlowBelowFirstLevel(t *testing.T) {
	c := newDefault()
	// At level 0 with stored 0, any faults hit the slow-down branch but
	// there is nowhere to go.
	if d, changed := runEpoch(c, 50); d != Keep || changed {
		t.Fatalf("at slowest level expected Keep, got %v changed=%v", d, changed)
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
	if d, changed := runEpoch(c, 10); d != Keep || changed {
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

func TestNewWithValidation(t *testing.T) {
	bad := [][]float64{
		{1},           // too few
		{1, 1},        // not strictly decreasing
		{0.5, 0.75},   // increasing
		{1, 0.5, 0.5}, // repeat
		{1, -0.5},     // negative
	}
	for i, levels := range bad {
		if _, err := NewWith(levels, 100, 2, 0.8, 10); err == nil {
			t.Errorf("levels %d (%v) should be rejected", i, levels)
		}
	}
	if _, err := NewWith(DefaultLevels(), 0, 2, 0.8, 10); err == nil {
		t.Error("zero epoch should be rejected")
	}
	if _, err := NewWith(DefaultLevels(), 100, 0.8, 2, 10); err == nil {
		t.Error("X1 <= X2 should be rejected")
	}
	if _, err := NewWith(DefaultLevels(), 100, 2, 0.8, -1); err == nil {
		t.Error("negative penalty should be rejected")
	}
	if _, err := NewWith(DefaultLevels(), 100, 2, 0.8, 10); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDecisionString(t *testing.T) {
	if Keep.String() != "keep" || SpeedUp.String() != "speed up" || SlowDown.String() != "slow down" {
		t.Fatal("unexpected Decision strings")
	}
}
