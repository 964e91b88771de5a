package cache

import (
	"math/bits"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// corruptWord flips one stored bit of the cached word at a, simulating a
// write-path fault left behind in the array.
func corruptWord(t *testing.T, h *Hierarchy, a simmem.Addr) {
	t.Helper()
	if !h.L1D.tab.corrupt(a, 0x01) {
		t.Fatalf("address %#x not cached", a)
	}
}

// strike forces one uncorrected parity strike on the frame holding a: the
// word is stored, corrupted in the array, and read back through the
// one-strike recovery path.
func strike(t *testing.T, h *Hierarchy, a simmem.Addr) {
	t.Helper()
	if err := h.L1D.Store32(a, 0xbeef); err != nil {
		t.Fatal(err)
	}
	corruptWord(t, h, a)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
}

func newParityHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	inj := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchy(space, inj, DetectionParity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLineDisableAfterStrikes(t *testing.T) {
	h := newParityHierarchy(t)
	h.L1D.SetLineDisable(2, 0)
	a := h.Space.MustAlloc(64, 4)

	strike(t, h, a)
	if h.L1D.Recovery.LineDisables != 0 || h.L1D.DisabledLines() != 0 {
		t.Fatalf("one strike below the budget already disabled: %+v", h.L1D.Recovery)
	}
	strike(t, h, a)
	if h.L1D.Recovery.LineDisables != 1 || h.L1D.DisabledLines() != 1 {
		t.Fatalf("second strike should disable the frame: %+v", h.L1D.Recovery)
	}

	// The direct-mapped set is now empty: accesses bypass to the L2 and
	// still deliver correct values.
	if err := h.L1D.Store32(a, 0x1234); err != nil {
		t.Fatal(err)
	}
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1234 {
		t.Fatalf("bypass read = %#x, want 0x1234", v)
	}
	if h.L1D.Recovery.Bypasses < 2 {
		t.Fatalf("Bypasses = %d, want >= 2 (store + load)", h.L1D.Recovery.Bypasses)
	}

	// A frequency drop (longer cycle) re-enables the frame with a clean
	// strike window; a frequency increase does not.
	h.L1D.SetCycleTime(0.5)
	if h.L1D.DisabledLines() != 1 {
		t.Fatal("frequency increase re-enabled a dead frame")
	}
	h.L1D.SetCycleTime(1)
	if h.L1D.DisabledLines() != 0 || h.L1D.Recovery.LineReEnables != 1 {
		t.Fatalf("frequency drop did not re-enable: %d dead, %+v", h.L1D.DisabledLines(), h.L1D.Recovery)
	}
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
}

func TestLineDisableWindowExpiry(t *testing.T) {
	h := newParityHierarchy(t)
	h.L1D.SetLineDisable(2, 4)
	a := h.Space.MustAlloc(64, 4)
	other := h.Space.MustAlloc(4096, 4)

	strike(t, h, a)
	// Age the first strike out of the 4-access window.
	for off := simmem.Addr(0); off < 40; off += 4 {
		if _, err := h.L1D.Load32(other + off); err != nil {
			t.Fatal(err)
		}
	}
	strike(t, h, a)
	if h.L1D.Recovery.LineDisables != 0 {
		t.Fatal("strikes outside the window must not accumulate to a disable")
	}
	// Two strikes back-to-back inside a fresh window do disable.
	strike(t, h, a)
	if h.L1D.Recovery.LineDisables != 1 {
		t.Fatalf("LineDisables = %d after two in-window strikes", h.L1D.Recovery.LineDisables)
	}
}

func TestLineDisableDormantByDefault(t *testing.T) {
	h := newParityHierarchy(t)
	a := h.Space.MustAlloc(64, 4)
	for i := 0; i < 5; i++ {
		strike(t, h, a)
	}
	if h.L1D.Recovery.LineDisables != 0 || h.L1D.DisabledLines() != 0 {
		t.Fatal("line disable acted while disarmed")
	}
	// The strike histogram still records the hits (free bookkeeping), and
	// the spatial evidence still flows.
	hist := h.L1D.StrikeHistogram()
	if hist[5] != 1 {
		t.Fatalf("histogram = %v, want one frame in bucket 5", hist)
	}
	distinct, frac := h.L1D.TakeEpochEvidence()
	if distinct != 1 || frac != 0 {
		t.Fatalf("evidence = (%d, %g), want (1, 0)", distinct, frac)
	}
}

func TestForceDisableFractionAndPinning(t *testing.T) {
	h := newParityHierarchy(t)
	total := len(h.L1D.tab.lines)
	h.L1D.ForceDisable(0.25)
	want := total / 4
	if h.L1D.DisabledLines() != want {
		t.Fatalf("DisabledLines = %d, want %d of %d", h.L1D.DisabledLines(), want, total)
	}
	if got := h.L1D.DisabledFraction(); got != 0.25 {
		t.Fatalf("DisabledFraction = %g", got)
	}
	// Pinned frames survive the frequency-drop amnesty.
	h.L1D.SetCycleTime(0.5)
	h.L1D.SetCycleTime(1)
	if h.L1D.DisabledLines() != want || h.L1D.Recovery.LineReEnables != 0 {
		t.Fatal("frequency drop re-enabled pinned frames")
	}
	// Values survive a full sweep over every set, dead or alive.
	a := h.Space.MustAlloc(8192, 4)
	for off := simmem.Addr(0); off < 8192; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	for off := simmem.Addr(0); off < 8192; off += 4 {
		v, err := h.L1D.Load32(a + off)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(off)^0x5a5a {
			t.Fatalf("[%#x] = %#x, want %#x", a+off, v, uint32(off)^0x5a5a)
		}
	}
	if h.L1D.Recovery.Bypasses == 0 {
		t.Fatal("a quarter of the cache is dead but nothing bypassed")
	}
}

func TestForceDisableAllBypassesEverything(t *testing.T) {
	h := newParityHierarchy(t)
	h.L1D.ForceDisable(1)
	if h.L1D.DisabledFraction() != 1 {
		t.Fatalf("DisabledFraction = %g, want 1", h.L1D.DisabledFraction())
	}
	a := h.Space.MustAlloc(256, 4)
	if err := h.L1D.Store32(a, 77); err != nil {
		t.Fatal(err)
	}
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Fatalf("uncached round trip = %d, want 77", v)
	}
	if h.L1D.Stats.ReadMisses == 0 || h.L1D.Recovery.Bypasses == 0 {
		t.Fatalf("fully dead cache must miss and bypass: %+v %+v", h.L1D.Stats, h.L1D.Recovery)
	}
}

func TestEpochEvidenceDistinctFrames(t *testing.T) {
	h := newParityHierarchy(t)
	a := h.Space.MustAlloc(64, 4)
	b := h.Space.MustAlloc(4096, 4) // different set than a
	strike(t, h, a)
	strike(t, h, a) // same frame twice: still one distinct line
	strike(t, h, b)
	distinct, _ := h.L1D.TakeEpochEvidence()
	if distinct != 2 {
		t.Fatalf("distinct = %d, want 2", distinct)
	}
	// The epoch advanced: the same frames count again next epoch.
	strike(t, h, a)
	distinct, _ = h.L1D.TakeEpochEvidence()
	if distinct != 1 {
		t.Fatalf("next epoch distinct = %d, want 1", distinct)
	}
	distinct, _ = h.L1D.TakeEpochEvidence()
	if distinct != 0 {
		t.Fatalf("empty epoch distinct = %d, want 0", distinct)
	}
}

// TestDisableSnapshotRestore checks that the whole ladder state — dead
// frames, pinned frames, strike counts, histogram — round-trips through
// checkpoint/restore, so drop-and-continue cannot resurrect a disabled
// line or forget a strike.
func TestDisableSnapshotRestore(t *testing.T) {
	h := newParityHierarchy(t)
	h.L1D.SetLineDisable(2, 0)
	a := h.Space.MustAlloc(64, 4)
	strike(t, h, a)
	strike(t, h, a) // disables the frame
	h.L1D.ForceDisable(0.05)
	deadBefore := h.L1D.DisabledLines()
	histBefore := h.L1D.StrikeHistogram()
	if deadBefore < 2 {
		t.Fatalf("setup: %d dead frames, want >= 2", deadBefore)
	}

	snap := h.Snapshot(nil)

	// Mutate: the frequency drop revives the strike-disabled frame (not
	// the pinned ones) and fresh strikes restart elsewhere.
	h.L1D.SetCycleTime(0.5)
	h.L1D.SetCycleTime(1)
	if h.L1D.DisabledLines() >= deadBefore {
		t.Fatal("mutation did not change the disabled set")
	}
	b := h.Space.MustAlloc(8192, 4)
	for { // skip frames pinned by ForceDisable: dead sets never cache
		if err := h.L1D.Store32(b, 1); err != nil {
			t.Fatal(err)
		}
		if h.L1D.tab.lookup(b) >= 0 {
			break
		}
		b += simmem.Addr(DefaultL1D.BlockSize)
	}
	strike(t, h, b)

	h.RestoreSnapshot(snap)
	if got := h.L1D.DisabledLines(); got != deadBefore {
		t.Fatalf("after restore: %d dead frames, want %d", got, deadBefore)
	}
	if got := h.L1D.StrikeHistogram(); got != histBefore {
		t.Fatalf("after restore: histogram %v, want %v", got, histBefore)
	}
	// The restored dead frame still bypasses.
	bypasses := h.L1D.Recovery.Bypasses
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if h.L1D.Recovery.Bypasses == bypasses {
		t.Fatal("restored dead frame served from the array")
	}
}

// TestECCMiscorrectionUnderBurst is the >=3-bit hazard of SEC-DED under
// correlated faults: a burst-model triple-bit flip is "corrected" to yet
// another wrong word — the delivered value differs from both the raw read
// and the originally encoded word, and Recovery.Miscorrected counts it
// (flushed to the recovery.ecc_miscorrected counter by the run machinery).
func TestECCMiscorrectionUnderBurst(t *testing.T) {
	m := fault.NewModel(3e4)
	burstParams := fault.BurstParams{MeanGoodAccesses: 1, MeanBadAccesses: 1e9, BadMultiplier: 1e9}

	// Unit level: hunt the burst process for a triple-bit mask and push it
	// through the decoder by hand.
	b := fault.NewBurst(m, fault.NewRNG(9), 32, burstParams)
	enc := uint32(0x12345678)
	var mask uint32
	for i := 0; i < 1e6 && mask == 0; i++ {
		if mk := uint32(b.NextAt(0)); bits.OnesCount32(mk) == 3 {
			mask = mk
		}
	}
	if mask == 0 {
		t.Fatal("burst process produced no triple-bit mask in the bad state")
	}
	read := enc ^ mask
	v, outcome := classifyECC(read, enc)
	if outcome != eccMiscorrected {
		t.Fatalf("triple-bit classified %v, want miscorrection", outcome)
	}
	if v == read || v == enc {
		t.Fatalf("miscorrected word %#x must differ from both the read word %#x and the encoded word %#x", v, read, enc)
	}

	// Integration: an ECC hierarchy driven by the burst process racks up
	// miscorrections and delivers wrong values while doing so.
	space := simmem.NewSpace(1 << 20)
	proc := fault.NewBurst(m, fault.NewRNG(21), 32, burstParams)
	h, err := NewHierarchy(space, proc, DetectionECC, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := space.MustAlloc(4096, 4)
	if err := h.L1D.Store32(a, 42); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i := 0; i < 5000; i++ {
		v, err := h.L1D.Load32(a)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			wrong++
		}
	}
	if h.L1D.Recovery.Miscorrected == 0 {
		t.Fatal("no ECC miscorrections under a saturated burst")
	}
	if wrong == 0 {
		t.Fatal("miscorrections counted but every delivered value was right")
	}
}
