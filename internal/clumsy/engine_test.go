package clumsy

import (
	"errors"
	"testing"

	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

func newTestEngine(t *testing.T) (*engine, *cache.Hierarchy) {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1e-9)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := cache.NewHierarchy(space, inj, cache.DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(h)
	if err != nil {
		t.Fatal(err)
	}
	return eng, h
}

func TestEngineStepAccounting(t *testing.T) {
	eng, _ := newTestEngine(t)
	if err := eng.Step(0, 10); err != nil {
		t.Fatal(err)
	}
	if eng.instrs != 10 || eng.coreCycles() != 10 {
		t.Fatalf("instrs %d core %v", eng.instrs, eng.coreCycles())
	}
	if err := eng.Step(1, 5); err != nil {
		t.Fatal(err)
	}
	if eng.instrs != 15 {
		t.Fatalf("instrs = %d", eng.instrs)
	}
}

func TestEngineNegativeStepPanics(t *testing.T) {
	eng, _ := newTestEngine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative step should panic")
		}
	}()
	_ = eng.Step(0, -1)
}

// TestEngineBlockOutsideCodeSegmentPanics: a block outside the code
// segment would fetch a line the L1I's resident mask cannot tell apart
// from a code line.
func TestEngineBlockOutsideCodeSegmentPanics(t *testing.T) {
	for _, block := range []int{appBlocks, -1} {
		eng, _ := newTestEngine(t)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step(%d, 1) did not panic", block)
				}
			}()
			_ = eng.Step(block, 1)
		}()
	}
}

func TestEngineInstructionFetches(t *testing.T) {
	eng, h := newTestEngine(t)
	// Switching blocks fetches each block's line once; staying within a
	// block fetches once per 8 instructions.
	if err := eng.Step(0, 1); err != nil {
		t.Fatal(err)
	}
	if h.L1I.Stats.Reads != 1 {
		t.Fatalf("block entry made %d fetches, want 1", h.L1I.Stats.Reads)
	}
	// 1+16 instructions in the block complete two groups of 8.
	if err := eng.Step(0, 16); err != nil {
		t.Fatal(err)
	}
	// Same-line fetches hit after the first miss.
	if h.L1I.Stats.Reads != 3 || h.L1I.Stats.ReadMisses != 1 {
		t.Fatalf("L1I %+v, want 3 reads and 1 miss", h.L1I.Stats)
	}
}

func TestEngineWatchdog(t *testing.T) {
	eng, _ := newTestEngine(t)
	eng.budget = 100
	eng.beginPacket()
	if err := eng.Step(0, 99); err != nil {
		t.Fatal(err)
	}
	err := eng.Step(0, 50)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want watchdog", err)
	}
	// A new packet resets the window.
	eng.beginPacket()
	if err := eng.Step(0, 50); err != nil {
		t.Fatalf("fresh packet should have budget: %v", err)
	}
	if eng.packetInstrs() != 50 {
		t.Fatalf("packetInstrs = %d", eng.packetInstrs())
	}
}

func TestEngineUnlimitedBudget(t *testing.T) {
	eng, _ := newTestEngine(t)
	eng.budget = 0
	eng.beginPacket()
	if err := eng.Step(0, 1<<20); err != nil {
		t.Fatalf("unlimited budget tripped: %v", err)
	}
}

func TestDataMemoryCountsInstructions(t *testing.T) {
	eng, h := newTestEngine(t)
	mem := dataMemory{eng, h.L1D}
	a := h.Space.MustAlloc(64, 4)
	if err := mem.Store32(a, 7); err != nil {
		t.Fatal(err)
	}
	v, err := mem.Load32(a)
	if err != nil || v != 7 {
		t.Fatalf("Load32 = %v, %v", v, err)
	}
	if eng.instrs != 2 {
		t.Fatalf("memory ops should count as instructions: %d", eng.instrs)
	}
	// Sub-word paths.
	if err := mem.Store8(a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load8(a); err != nil {
		t.Fatal(err)
	}
	if eng.instrs != 4 {
		t.Fatalf("instrs = %d, want 4", eng.instrs)
	}
}

func TestDataMemoryWatchdog(t *testing.T) {
	eng, h := newTestEngine(t)
	mem := dataMemory{eng, h.L1D}
	a := h.Space.MustAlloc(64, 4)
	eng.budget = 2
	eng.beginPacket()
	_ = mem.Store32(a, 1)
	_ = mem.Store32(a, 2)
	if err := mem.Store32(a, 3); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want watchdog on memory op", err)
	}
}

func TestTotalCyclesIncludesStalls(t *testing.T) {
	eng, h := newTestEngine(t)
	mem := dataMemory{eng, h.L1D}
	a := h.Space.MustAlloc(64, 4)
	if _, err := mem.Load32(a); err != nil { // cold miss: L2 + memory stalls
		t.Fatal(err)
	}
	if eng.totalCycles() <= eng.coreCycles() {
		t.Fatal("total cycles should include memory stalls")
	}
}

func TestPlanesString(t *testing.T) {
	cases := map[Planes]string{
		PlaneControl: "control plane",
		PlaneData:    "data plane",
		PlaneBoth:    "both planes",
		PlaneNone:    "no injection",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
