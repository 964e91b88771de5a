package cache

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

func TestClassifyECC(t *testing.T) {
	enc := uint32(0xdeadbeef)
	if v, o := classifyECC(enc, enc); o != eccClean || v != enc {
		t.Fatalf("clean word misclassified: %v %v", v, o)
	}
	if v, o := classifyECC(enc^0x10, enc); o != eccCorrected || v != enc {
		t.Fatalf("single-bit not corrected: %#x %v", v, o)
	}
	if v, o := classifyECC(enc^0x30, enc); o != eccDetected || v != enc^0x30 {
		t.Fatalf("double-bit not detected: %#x %v", v, o)
	}
	if _, o := classifyECC(enc^0x70, enc); o != eccMiscorrected {
		t.Fatalf("triple-bit should miscorrect, got %v", o)
	}
}

// eccHierarchy builds an ECC-protected hierarchy with a manual injector.
func eccHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchy(space, inj, DetectionECC, 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestECCCorrectsSingleBitWriteFault(t *testing.T) {
	h := eccHierarchy(t)
	a := h.Space.MustAlloc(64, 4)
	if err := h.L1D.Store32(a, 0x12345678); err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored bit by hand (a write-path fault left it behind).
	h.L1D.tab.corrupt(a, 0x04)
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x12345678 {
		t.Fatalf("ECC returned %#x, want corrected value", v)
	}
	if h.L1D.Recovery.Corrected != 1 {
		t.Fatalf("corrected counter = %d", h.L1D.Recovery.Corrected)
	}
	// The scrub wrote the corrected value back: a second read is clean.
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if h.L1D.Recovery.Corrected != 1 {
		t.Fatal("scrub did not repair the array")
	}
}

// TestRestoreRewindsECCScrub: the scrub of a corrected read changes the
// array, so restoring a snapshot taken before it brings the flipped bit
// back, and the next read corrects it again.
func TestRestoreRewindsECCScrub(t *testing.T) {
	h := eccHierarchy(t)
	a := h.Space.MustAlloc(64, 4)
	if err := h.L1D.Store32(a, 0x12345678); err != nil {
		t.Fatal(err)
	}
	h.L1D.tab.corrupt(a, 0x04)
	snap := h.Snapshot(nil)
	for range 2 { // the read corrects and scrubs; the restore undoes the scrub
		if v, err := h.L1D.Load32(a); err != nil || v != 0x12345678 {
			t.Fatalf("Load32 = %#x, %v; want the corrected 0x12345678", v, err)
		}
		h.RestoreSnapshot(snap)
	}
	if h.L1D.Recovery.Corrected != 2 {
		t.Fatalf("corrected %d reads, want 2: the restore kept the scrub", h.L1D.Recovery.Corrected)
	}
}

func TestECCDetectsDoubleBitAndRecovers(t *testing.T) {
	h := eccHierarchy(t)
	a := h.Space.MustAlloc(64, 4)
	if err := h.L1D.Store32(a, 0xcafe); err != nil {
		t.Fatal(err)
	}
	// Flush the correct value to L2 so recovery has a source.
	h.L1D.InvalidateAllWriteback(t)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	h.L1D.tab.corrupt(a, 0x03) // two bits: uncorrectable, detectable
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xcafe {
		t.Fatalf("double-bit recovery returned %#x", v)
	}
	if h.L1D.Recovery.ParityErrors == 0 || h.L1D.Recovery.Recoveries == 0 {
		t.Fatalf("double-bit fault should detect and recover: %+v", h.L1D.Recovery)
	}
}

func TestSubBlockRecoveryKeepsDirtyNeighbours(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchy(space, inj, DetectionParity, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.SetSubBlock(true)
	a := space.MustAlloc(64, 32)
	// Word 0 goes through L2 (so recovery has a source); word 1 is a
	// dirty neighbour that must survive the word-granular recovery.
	if err := h.L1D.Store32(a, 0x1111); err != nil {
		t.Fatal(err)
	}
	h.L1D.InvalidateAllWriteback(t)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if err := h.L1D.Store32(a+4, 0x2222); err != nil {
		t.Fatal(err)
	}
	// Corrupt word 0, as a write-path fault would.
	h.L1D.tab.corrupt(a, 0x01)
	wbBefore := h.L1D.Stats.Writebacks
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1111 {
		t.Fatalf("sub-block recovery returned %#x", v)
	}
	if h.L1D.Recovery.Recoveries != 1 {
		t.Fatalf("recoveries = %d", h.L1D.Recovery.Recoveries)
	}
	if h.L1D.Stats.Writebacks != wbBefore {
		t.Fatal("sub-block recovery must not write the line back")
	}
	if h.L1D.Stats.Invalidations != 0 {
		t.Fatal("sub-block recovery must not invalidate the line")
	}
	// The dirty neighbour survived in place.
	n, err := h.L1D.Load32(a + 4)
	if err != nil || n != 0x2222 {
		t.Fatalf("dirty neighbour = %#x, %v", n, err)
	}
}

func TestECCRunsUnderInjection(t *testing.T) {
	// ECC at an extreme rate: the vast majority of faults are single-bit
	// and must be corrected without recovery traffic.
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(3e4)
	inj := fault.NewInjector(m, fault.NewRNG(7), 32)
	h, err := NewHierarchy(space, inj, DetectionECC, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := space.MustAlloc(4096, 4)
	if err := h.L1D.Store32(a, 42); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i := 0; i < 20000; i++ {
		v, err := h.L1D.Load32(a)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			wrong++
		}
	}
	if h.L1D.Recovery.Corrected == 0 {
		t.Fatal("no corrections at extreme rate")
	}
	faults := h.L1D.Recovery.FaultsOnRead + h.L1D.Recovery.FaultsOnWrite
	if float64(wrong) > 0.01*float64(faults) {
		t.Fatalf("ECC let %d of %d faults through", wrong, faults)
	}
}
