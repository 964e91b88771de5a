package cache

import (
	"testing"

	"clumsy/internal/simmem"
)

// scripted is a fault process that faults only where its script says:
// access k of the L1D's array (counting from 0) is masked by script[k],
// and every access past the script is clean. It never promises a quiet
// access, so the L1D draws from it on every access it drives.
type scripted []uint32

func (s *scripted) NextAt(uint64) uint64 {
	if len(*s) == 0 {
		return 0
	}
	m := (*s)[0]
	*s = (*s)[1:]
	return uint64(m)
}

func (*scripted) Quiet() int64         { return 0 }
func (*scripted) Skip(int64)           {}
func (*scripted) SetCycleTime(float64) {}
func (*scripted) SetEnabled(bool)      {}

func newScripted(masks ...uint32) *scripted { s := scripted(masks); return &s }

// scriptedHierarchy builds a hierarchy under detection det and k-strike
// recovery whose L1D draws its faults from script, and returns it with a
// word-aligned address in fresh memory.
func scriptedHierarchy(t *testing.T, det Detection, strikes int, script *scripted) (*Hierarchy, simmem.Addr) {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	h, err := NewHierarchy(space, script, det, strikes)
	if err != nil {
		t.Fatal(err)
	}
	return h, space.MustAlloc(64, 4)
}

// verdict is what a read's first attempt concludes about the word it saw.
type verdict int

const (
	clean verdict = iota
	corrected
	miscorrected
	detected
)

// explicitCheck is the reference for one read attempt: it keeps the check
// bits a word's intended value v sets (its parity bit, and v itself as the
// SEC-DED word), and checks the word read against them. It returns the
// verdict and, unless the fault is detected, the value delivered.
func explicitCheck(det Detection, v, read uint32) (verdict, uint32) {
	switch det {
	case DetectionParity:
		if wordParity(read) != wordParity(v) {
			return detected, 0
		}
	case DetectionECC:
		decoded, outcome := classifyECC(read, v)
		switch outcome {
		case eccCorrected:
			return corrected, decoded
		case eccMiscorrected:
			return miscorrected, decoded
		case eccDetected:
			return detected, 0
		}
	}
	return clean, read
}

// FuzzErrorPattern checks the L1D's error patterns against explicit check
// bits. It stores v under write mask w, then loads it with read mask r on
// the first read attempt and no fault afterwards, with one-strike
// recovery under detection scheme%3 (none, parity, ECC). The first
// attempt's verdict, the recovery counters the load moves and the value it
// delivers must be those of the reference, which decides the first
// attempt from v's own check bits. A detected fault sends the dirty line,
// which holds v^w, back to the L2 and refills it, so the load delivers
// v^w.
func FuzzErrorPattern(f *testing.F) {
	for _, s := range []struct{ v, w, r uint32 }{
		{0xcafe0000, 0, 0},
		{0xcafe0000, 0, 1},     // odd read mask
		{0xcafe0000, 0, 0x03},  // even read mask
		{0xcafe0000, 1, 0},     // one-bit write fault
		{0xcafe0000, 0x81, 0},  // two-bit write fault
		{0xcafe0000, 0x181, 0}, // three-bit write fault
		{0x12345678, 1, 1},     // r == w: the read cancels the write fault
		{0x12345678, 0x30, 0x30},
		{0x12345678, 1, 0x10},
		{0x12345678, 0x10, 0x300},
		{0xffffffff, 0x80000000, 0x00010000},
	} {
		for scheme := range uint8(3) {
			f.Add(s.v, s.w, s.r, scheme)
		}
	}
	f.Fuzz(func(t *testing.T, v, w, r uint32, scheme uint8) {
		det := []Detection{DetectionNone, DetectionParity, DetectionECC}[scheme%3]
		h, a := scriptedHierarchy(t, det, 1, newScripted(w, r))
		if err := h.L1D.Store32(a, v); err != nil {
			t.Fatal(err)
		}
		got, err := h.L1D.Load32(a)
		if err != nil {
			t.Fatal(err)
		}

		verd, want := explicitCheck(det, v, v^w^r)
		rec := RecoveryStats{FaultsOnWrite: b2u(w != 0), FaultsOnRead: b2u(r != 0)}
		switch verd {
		case corrected:
			rec.Corrected = 1
		case miscorrected:
			rec.Miscorrected = 1
		case detected:
			rec.ParityErrors, rec.Recoveries = 1, 1
			want = v ^ w
		}
		if h.L1D.Recovery != rec || got != want {
			t.Fatalf("%v, v %#x, w %#x, r %#x: load = %#x with %+v; reference %v = %#x with %+v",
				det, v, w, r, got, h.L1D.Recovery, verd, want, rec)
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestWriteFaultCaughtOnNextRead: a fault the fault process injects on a
// store stays behind in the array, and the next read of the word finds
// it. Two-strike parity detects it on both attempts, then writes the dirty
// line back and refetches it, so the recovery delivers the faulted word
// the L2 now holds; SEC-DED corrects it in place.
func TestWriteFaultCaughtOnNextRead(t *testing.T) {
	const v, mask = 0xcafe0000, 0x100
	for _, c := range []struct {
		det  Detection
		want uint32
		rec  RecoveryStats
	}{
		{DetectionParity, v ^ mask, RecoveryStats{ParityErrors: 2, Retries: 1, Recoveries: 1, FaultsOnWrite: 1}},
		{DetectionECC, v, RecoveryStats{Corrected: 1, FaultsOnWrite: 1}},
	} {
		h, a := scriptedHierarchy(t, c.det, 2, newScripted(mask))
		if err := h.L1D.Store32(a, v); err != nil {
			t.Fatal(err)
		}
		got, err := h.L1D.Load32(a)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want || h.L1D.Recovery != c.rec {
			t.Errorf("%v: load = %#x with %+v, want %#x with %+v", c.det, got, h.L1D.Recovery, c.want, c.rec)
		}
	}
}
