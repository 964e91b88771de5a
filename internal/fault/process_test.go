package fault

import (
	"math/bits"
	"testing"
)

// trace collects the mask sequence of n enabled accesses.
func trace(p Process, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.NextAt(uint64(i * 4))
	}
	return out
}

// TestInjectorDisablePreservesGap is the regression contract of the
// enable/disable path: disabled accesses pass through without advancing
// the process, so an injector that is switched off and on again produces
// exactly the fault trace of one that never was — the pending geometric
// gap survives the round trip.
func TestInjectorDisablePreservesGap(t *testing.T) {
	m := NewModel(5e4)
	mk := func() *Injector { return NewInjector(m, NewRNG(42).Fork(0xfa17), 32) }

	ref := mk()
	want := trace(ref, 3000)

	in := mk()
	got := trace(in, 1000)
	in.SetEnabled(false)
	for i := 0; i < 500; i++ {
		if mask := in.Next(); mask != 0 {
			t.Fatalf("disabled access %d injected %#x", i, mask)
		}
	}
	in.SetEnabled(true)
	got = append(got, trace(in, 2000)...)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: mask %#x after disable/enable, want %#x", i, got[i], want[i])
		}
	}
}

// TestInjectorSetCycleTimeMidGapDeterministic pins the rescale semantics:
// SetCycleTime in the middle of a pending gap redraws it at the new rate
// from the same RNG stream, so two injectors given the identical call
// schedule produce byte-identical traces.
func TestInjectorSetCycleTimeMidGapDeterministic(t *testing.T) {
	m := NewModel(5e4)
	run := func() []uint64 {
		in := NewInjector(m, NewRNG(9).Fork(0xfa17), 32)
		out := trace(in, 700)
		in.SetCycleTime(0.5)
		out = append(out, trace(in, 700)...)
		in.SetCycleTime(0.25)
		out = append(out, trace(in, 700)...)
		in.SetCycleTime(1)
		return append(out, trace(in, 700)...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d: %#x vs %#x — SetCycleTime mid-gap is not deterministic", i, a[i], b[i])
		}
	}
	faults := 0
	for _, mask := range a {
		if mask != 0 {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("schedule injected no faults; the test exercised nothing")
	}
}

func TestBurstDeterminism(t *testing.T) {
	m := NewModel(1e4)
	mk := func() *Burst {
		return NewBurst(m, NewRNG(7).Fork(0xfa17), 32, BurstParams{
			MeanGoodAccesses: 500, MeanBadAccesses: 100, BadMultiplier: 100})
	}
	a, b := mk(), mk()
	ta, tb := trace(a, 50000), trace(b, 50000)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("access %d: %#x vs %#x", i, ta[i], tb[i])
		}
	}
	if a.Episodes != b.Episodes || a.Events != b.Events || a.BitFlips != b.BitFlips {
		t.Fatalf("counters diverge: %+v vs %+v", a, b)
	}
	if a.Episodes == 0 {
		t.Fatal("short residence times produced no bad-state episodes")
	}
	if a.Events == 0 {
		t.Fatal("no fault events at an extreme scale")
	}
}

func TestBurstTransitionsAlternate(t *testing.T) {
	m := NewModel(1)
	b := NewBurst(m, NewRNG(3), 32, BurstParams{
		MeanGoodAccesses: 50, MeanBadAccesses: 20, BadMultiplier: 10})
	var states []bool
	b.OnTransition = func(bad bool) { states = append(states, bad) }
	trace(b, 10000)
	if len(states) < 4 {
		t.Fatalf("only %d transitions in 10k accesses with mean residence 50/20", len(states))
	}
	for i, bad := range states {
		if want := i%2 == 0; bad != want {
			t.Fatalf("transition %d: bad=%v, want %v (good and bad states must alternate)", i, bad, want)
		}
	}
	if int(b.Episodes) != (len(states)+1)/2 {
		t.Fatalf("Episodes = %d, want %d (one per entry into the bad state)", b.Episodes, (len(states)+1)/2)
	}
}

func TestBurstDisabled(t *testing.T) {
	b := NewBurst(NewModel(1e6), NewRNG(1), 32, DefaultBurstParams())
	b.SetEnabled(false)
	for i := 0; i < 100; i++ {
		if mask := b.Next(); mask != 0 {
			t.Fatalf("disabled burst injected %#x", mask)
		}
	}
	if b.Accesses != 0 {
		t.Fatalf("disabled accesses advanced the process: %d", b.Accesses)
	}
	b.SetEnabled(true)
	b.Next()
	if b.Accesses != 1 {
		t.Fatalf("re-enabled burst counted %d accesses, want 1", b.Accesses)
	}
}

func TestBurstParamValidation(t *testing.T) {
	for _, p := range []BurstParams{
		{MeanGoodAccesses: 0, MeanBadAccesses: 10, BadMultiplier: 2},
		{MeanGoodAccesses: 10, MeanBadAccesses: 0, BadMultiplier: 2},
		{MeanGoodAccesses: 10, MeanBadAccesses: 10, BadMultiplier: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBurst(%+v) did not panic", p)
				}
			}()
			NewBurst(NewModel(1), NewRNG(1), 32, p)
		}()
	}
}

// TestStuckAtTransparentWithoutWeakCells pins the regime contract: with no
// weak cells seeded, StuckAt must reproduce its inner process bit-for-bit
// — including the construction-time RNG consumption, so the permanent
// regime's transient substream is the paper regime's stream exactly.
func TestStuckAtTransparentWithoutWeakCells(t *testing.T) {
	m := NewModel(5e4)

	seedA := NewRNG(11)
	bare := NewInjector(m, seedA.Fork(0xfa17), 32)

	seedB := NewRNG(11)
	inner := NewInjector(m, seedB.Fork(0xfa17), 32)
	s := NewStuckAt(inner, seedB.Fork(0x57ac), 1024, StuckAtParams{
		WeakCellFraction: 0, MinThreshold: 0.3, MaxThreshold: 0.8})

	if n := weakCells(s); n != 0 {
		t.Fatalf("zero fraction seeded %d weak cells", n)
	}
	for i := 0; i < 20000; i++ {
		addr := uint64(i * 4)
		if got, want := s.NextAt(addr), bare.NextAt(addr); got != want {
			t.Fatalf("access %d: stuck-at %#x, bare injector %#x", i, got, want)
		}
	}
	s.SetCycleTime(0.5)
	bare.SetCycleTime(0.5)
	for i := 0; i < 20000; i++ {
		addr := uint64(i * 4)
		if got, want := s.NextAt(addr), bare.NextAt(addr); got != want {
			t.Fatalf("post-rescale access %d: stuck-at %#x, bare injector %#x", i, got, want)
		}
	}
}

// weakCells returns the number of words of s carrying a weak cell.
func weakCells(s *StuckAt) int {
	n := 0
	for _, c := range s.cells {
		if c.bit >= 0 {
			n++
		}
	}
	return n
}

// quietInner is an inner process that never faults, isolating the
// stuck-at overlay so the per-cell assertions below are exact.
type quietInner struct{}

func (quietInner) NextAt(addr uint64) uint64 { return 0 }
func (quietInner) SetCycleTime(cr float64)   {}
func (quietInner) SetEnabled(on bool)        {}
func (quietInner) ResetCounters()            {}

func newAllWeak(t *testing.T, band, prob float64) *StuckAt {
	t.Helper()
	return NewStuckAt(quietInner{}, NewRNG(5), 64, StuckAtParams{
		WeakCellFraction: 1, MinThreshold: 0.5, MaxThreshold: 0.5,
		IntermittentBand: band, IntermittentProb: prob})
}

func TestStuckAtPermanentThreshold(t *testing.T) {
	s := newAllWeak(t, 0, 0)
	if n := weakCells(s); n != 64 {
		t.Fatalf("weak cells = %d, want 64", n)
	}
	// At full swing every cell is above threshold: silent.
	for i := 0; i < 64; i++ {
		if mask := s.NextAt(uint64(i * 4)); mask != 0 {
			t.Fatalf("word %d faulted at Cr=1: %#x", i, mask)
		}
	}
	// Below every threshold: each access faults with exactly the cell bit.
	s.SetCycleTime(0.4)
	for i := 0; i < 64; i++ {
		mask := s.NextAt(uint64(i * 4))
		if bits.OnesCount64(mask) != 1 || mask>>32 != 0 {
			t.Fatalf("word %d: stuck mask %#x, want exactly one bit in the low word", i, mask)
		}
		// The same word faults identically on every visit.
		if again := s.NextAt(uint64(i * 4)); again != mask {
			t.Fatalf("word %d: %#x then %#x — a stuck cell must repeat", i, mask, again)
		}
	}
	if s.PermanentHits != 128 {
		t.Fatalf("PermanentHits = %d, want 128", s.PermanentHits)
	}
	if s.IntermittentHits != 0 {
		t.Fatalf("IntermittentHits = %d with no band", s.IntermittentHits)
	}
}

func TestStuckAtIntermittentBand(t *testing.T) {
	s := newAllWeak(t, 0.2, 1) // band up to 0.6, always fault inside it
	s.SetCycleTime(0.55)
	for i := 0; i < 64; i++ {
		if mask := s.NextAt(uint64(i * 4)); mask == 0 {
			t.Fatalf("word %d silent inside the band with prob 1", i)
		}
	}
	if s.IntermittentHits != 64 || s.PermanentHits != 0 {
		t.Fatalf("hits = %d intermittent, %d permanent; want 64, 0", s.IntermittentHits, s.PermanentHits)
	}
	s.SetCycleTime(0.7) // above the band: silent again
	for i := 0; i < 64; i++ {
		if mask := s.NextAt(uint64(i * 4)); mask != 0 {
			t.Fatalf("word %d faulted above the band: %#x", i, mask)
		}
	}
}

func TestStuckAtDisabled(t *testing.T) {
	s := newAllWeak(t, 0, 0)
	s.SetCycleTime(0.4)
	s.SetEnabled(false)
	if mask := s.NextAt(0); mask != 0 {
		t.Fatalf("disabled stuck-at injected %#x", mask)
	}
	if s.PermanentHits != 0 {
		t.Fatal("disabled access counted a permanent hit")
	}
}

func TestStuckAtMapDeterminism(t *testing.T) {
	mk := func() *StuckAt {
		return NewStuckAt(quietInner{}, NewRNG(77), 2048, DefaultStuckAtParams())
	}
	a, b := mk(), mk()
	if weakCells(a) != weakCells(b) {
		t.Fatalf("weak-cell maps differ: %d vs %d", weakCells(a), weakCells(b))
	}
	if weakCells(a) == 0 {
		t.Fatal("default params seeded no weak cells in 2048 words")
	}
	a.SetCycleTime(0.25)
	b.SetCycleTime(0.25)
	for i := 0; i < 4096; i++ {
		addr := uint64(i * 4)
		if a.NextAt(addr) != b.NextAt(addr) {
			t.Fatalf("access %d diverges between identically seeded maps", i)
		}
	}
}

func TestStuckAtValidation(t *testing.T) {
	inner := quietInner{}
	for _, words := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStuckAt(words=%d) did not panic", words)
				}
			}()
			NewStuckAt(inner, NewRNG(1), words, DefaultStuckAtParams())
		}()
	}
}

// FuzzFaultProcess drives every fault process through a fuzzed schedule of
// accesses, rescales, and disable windows, and checks the two invariants
// the simulator depends on: identical seeds and schedules produce
// identical traces, and every mask fits the configured access width.
func FuzzFaultProcess(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(0), uint16(500))
	f.Add(uint64(42), uint8(1), uint8(0), uint8(3), uint16(900))
	f.Add(uint64(7), uint8(2), uint8(3), uint8(1), uint16(1200))
	f.Fuzz(func(t *testing.T, seed uint64, kind, crA, crB uint8, n uint16) {
		crs := []float64{1, 0.75, 0.5, 0.25}
		m := NewModel(1e4)
		mk := func() Process {
			rng := NewRNG(seed)
			switch kind % 3 {
			case 1:
				return NewBurst(m, rng.Fork(0xfa17), 32, BurstParams{
					MeanGoodAccesses: 200, MeanBadAccesses: 50, BadMultiplier: 50})
			case 2:
				inner := NewInjector(m, rng.Fork(0xfa17), 32)
				return NewStuckAt(inner, rng.Fork(0x57ac), 512, DefaultStuckAtParams())
			default:
				return NewInjector(m, rng.Fork(0xfa17), 32)
			}
		}
		steps := int(n)%2000 + 1
		run := func(p Process) []uint64 {
			p.SetCycleTime(crs[crA%4])
			out := trace(p, steps)
			p.SetEnabled(false)
			for i := 0; i < 37; i++ {
				p.NextAt(uint64(i))
			}
			p.SetEnabled(true)
			p.SetCycleTime(crs[crB%4])
			return append(out, trace(p, steps)...)
		}
		a, b := run(mk()), run(mk())
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("access %d: %#x vs %#x — identical schedules diverged", i, a[i], b[i])
			}
			if a[i]>>32 != 0 {
				t.Fatalf("access %d: mask %#x exceeds the 32-bit access width", i, a[i])
			}
		}
	})
}
