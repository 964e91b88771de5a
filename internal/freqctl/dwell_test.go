package freqctl

import (
	"testing"

	"clumsy/internal/fault"
)

// epochFeed generates an open-loop fault sequence: the fault count of each
// epoch depends only on the epoch index, never on the controller's state,
// so the same feed can drive two controllers for comparison.
func epochFeed(seed uint64, epochs int) []uint64 {
	rng := fault.NewRNG(seed)
	feed := make([]uint64, epochs)
	for i := range feed {
		if rng.Intn(2) == 0 {
			feed[i] = uint64(rng.Intn(40))
		}
	}
	return feed
}

type applied struct {
	epoch    int
	decision Decision
}

// drive runs one single-packet-epoch controller over the feed and returns
// the applied operating-point changes.
func drive(t *testing.T, minDwell int, feed []uint64) (*Controller, []applied) {
	t.Helper()
	c, err := New(1, DefaultX1, DefaultX2)
	if err != nil {
		t.Fatal(err)
	}
	c.SetMinDwell(minDwell)
	var changes []applied
	for i, f := range feed {
		if d, changed := c.PacketDone(f); changed {
			changes = append(changes, applied{epoch: i, decision: d})
		}
	}
	return c, changes
}

// TestMinDwellZeroIsUndamped: dwell zero must reproduce the paper's
// undamped semantics exactly — same decisions, same changes, same cycle
// times, epoch by epoch.
func TestMinDwellZeroIsUndamped(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		feed := epochFeed(seed, 400)
		ref, err := New(1, DefaultX1, DefaultX2)
		if err != nil {
			t.Fatal(err)
		}
		dw, err := New(1, DefaultX1, DefaultX2)
		if err != nil {
			t.Fatal(err)
		}
		dw.SetMinDwell(0)
		for i, f := range feed {
			rd, rc := ref.PacketDone(f)
			dd, dc := dw.PacketDone(f)
			if rd != dd || rc != dc || ref.CycleTime() != dw.CycleTime() {
				t.Fatalf("seed %d epoch %d: undamped (%v,%v,%g) != dwell-0 (%v,%v,%g)",
					seed, i, rd, rc, ref.CycleTime(), dd, dc, dw.CycleTime())
			}
		}
	}
}

// TestMinDwellSpacing: applied changes are separated by more than minDwell
// epochs, the first change of a run is never suppressed, and the level
// index stays in range throughout.
func TestMinDwellSpacing(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		feed := epochFeed(seed, 400)
		_, undamped := drive(t, 0, feed)
		firstEpoch := -1
		if len(undamped) > 0 {
			firstEpoch = undamped[0].epoch
		}
		for _, m := range []int{1, 2, 3, 5, 8} {
			c, changes := drive(t, m, feed)
			if got := c.CycleTime(); got != 1 && got != 0.75 && got != 0.5 && got != 0.25 {
				t.Fatalf("seed %d dwell %d: cycle time %g off the level grid", seed, m, got)
			}
			for i := 1; i < len(changes); i++ {
				if gap := changes[i].epoch - changes[i-1].epoch; gap <= m {
					t.Fatalf("seed %d dwell %d: changes %d epochs apart, want > %d",
						seed, m, gap, m)
				}
			}
			// The first change is exempt from the dwell: it lands on the same
			// epoch as the undamped run's first change.
			if firstEpoch >= 0 {
				if len(changes) == 0 || changes[0].epoch != firstEpoch {
					t.Fatalf("seed %d dwell %d: first change suppressed (undamped changed at epoch %d, dwelled %v)",
						seed, m, firstEpoch, changes)
				}
			}
		}
	}
}

// TestMinDwellSubsequence pins the relationship between the dwelled and
// undamped controllers on open-loop feeds: because suppressed decisions
// still advance the adaptation rule's reference state, the dwelled rule is
// identical to the undamped one for as long as the operating points agree
// — i.e. up to and including the first suppression. Over that prefix the
// two emit the same decision every epoch, so the dwelled controller's
// applied changes are a subsequence of the undamped controller's: the
// dwell removes changes, it never invents or reorders them. (Past the
// first suppression the operating points differ and the rules see
// different worlds, so no global relationship is claimed.)
func TestMinDwellSubsequence(t *testing.T) {
	suppressions := 0
	for seed := uint64(1); seed <= 25; seed++ {
		feed := epochFeed(seed, 400)
		for _, m := range []int{1, 2, 3, 5} {
			ref, err := New(1, DefaultX1, DefaultX2)
			if err != nil {
				t.Fatal(err)
			}
			dw, err := New(1, DefaultX1, DefaultX2)
			if err != nil {
				t.Fatal(err)
			}
			dw.SetMinDwell(m)
			var refApplied, dwApplied []Decision
			for i, f := range feed {
				rd, rc := ref.PacketDone(f)
				dd, dc := dw.PacketDone(f)
				if rd != dd {
					t.Fatalf("seed %d dwell %d epoch %d: decisions diverged before any suppression (undamped %v, dwelled %v)",
						seed, m, i, rd, dd)
				}
				if rc {
					refApplied = append(refApplied, rd)
				}
				if dc {
					dwApplied = append(dwApplied, dd)
				}
				if dd != Keep && !dc {
					// First suppression: the undamped twin applied this very
					// decision, and from here the trajectories part ways.
					if !rc {
						t.Fatalf("seed %d dwell %d epoch %d: decision %v suppressed by dwell but not applied undamped",
							seed, m, i, dd)
					}
					suppressions++
					break
				}
			}
			j := 0
			for _, d := range dwApplied {
				for j < len(refApplied) && refApplied[j] != d {
					j++
				}
				if j == len(refApplied) {
					t.Fatalf("seed %d dwell %d: dwelled changes %v are not a subsequence of undamped %v",
						seed, m, dwApplied, refApplied)
				}
				j++
			}
		}
	}
	if suppressions == 0 {
		t.Fatal("no feed ever triggered a dwell suppression; the property was tested vacuously")
	}
}

// TestSuppressedSlowDownArmsCooldown: a dwell-suppressed slow-down must
// still arm the exponential re-probe back-off and reset the reference
// fault count, exactly as an applied one would.
func TestSuppressedSlowDownArmsCooldown(t *testing.T) {
	c, err := New(1, DefaultX1, DefaultX2)
	if err != nil {
		t.Fatal(err)
	}
	c.SetMinDwell(2)

	// Epoch 1: fault-free, first change exempt from the dwell.
	if d, changed := c.PacketDone(0); d != SpeedUp || !changed {
		t.Fatalf("epoch 1: (%v,%v), want applied speed-up", d, changed)
	}
	// Epoch 2: fault storm -> slow-down decided but dwell-suppressed.
	if d, changed := c.PacketDone(50); d != SlowDown || changed {
		t.Fatalf("epoch 2: (%v,%v), want suppressed slow-down", d, changed)
	}
	if c.CycleTime() != 0.75 {
		t.Fatalf("suppressed slow-down moved the operating point to %g", c.CycleTime())
	}
	// Epoch 3: fault-free, but the suppressed slow-down armed the cooldown,
	// so the controller must not probe a faster level yet.
	if d, changed := c.PacketDone(0); d != Keep || changed {
		t.Fatalf("epoch 3: (%v,%v), want keep under cooldown", d, changed)
	}
	// Epoch 4: cooldown expired and the dwell is satisfied.
	if d, changed := c.PacketDone(0); d != SpeedUp || !changed {
		t.Fatalf("epoch 4: (%v,%v), want applied speed-up", d, changed)
	}
	if c.CycleTime() != 0.5 {
		t.Fatalf("cycle time %g after two applied speed-ups, want 0.5", c.CycleTime())
	}
	if c.Switches != 2 || c.PenaltyCycles != 2*DefaultSwitchPenalty {
		t.Fatalf("suppressed decisions leaked into accounting: %d switches, %g penalty",
			c.Switches, c.PenaltyCycles)
	}
}
