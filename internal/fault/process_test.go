package fault

import (
	"math"
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
		if mask := in.NextAt(uint64(i * 4)); mask != 0 {
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
	faults := 0
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("access %d: %#x vs %#x", i, ta[i], tb[i])
		}
		if ta[i] != 0 {
			faults++
		}
	}
	if a.Episodes != b.Episodes {
		t.Fatalf("episodes diverge: %d vs %d", a.Episodes, b.Episodes)
	}
	if a.Episodes == 0 {
		t.Fatal("short residence times produced no bad-state episodes")
	}
	if faults == 0 {
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

// TestBurstDisabled: disabled accesses neither fault nor advance the
// state residence or the fault gap, so the burst process disabled for a
// window produces the stream of a twin that never was.
func TestBurstDisabled(t *testing.T) {
	mk := func() *Burst {
		return NewBurst(NewModel(1e4), NewRNG(1), 32, BurstParams{
			MeanGoodAccesses: 500, MeanBadAccesses: 100, BadMultiplier: 100})
	}
	b, twin := mk(), mk()
	b.SetEnabled(false)
	for i := 0; i < 1000; i++ {
		if mask := b.NextAt(uint64(i * 4)); mask != 0 {
			t.Fatalf("disabled burst injected %#x", mask)
		}
	}
	b.SetEnabled(true)
	got, want := trace(b, 20000), trace(twin, 20000)
	faults := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: mask %#x after the disabled window, want %#x", i, got[i], want[i])
		}
		if got[i] != 0 {
			faults++
		}
	}
	if faults == 0 || b.Episodes == 0 {
		t.Fatalf("%d faults and %d episodes: the test exercised nothing", faults, b.Episodes)
	}
	if b.Episodes != twin.Episodes {
		t.Fatalf("episodes %d after the disabled window, want %d", b.Episodes, twin.Episodes)
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
func (quietInner) Quiet() int64              { return math.MaxInt64 }
func (quietInner) Skip(n int64)              {}
func (quietInner) SetCycleTime(cr float64)   {}
func (quietInner) SetEnabled(on bool)        {}

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

// countdown reaches a process the way the L1 data cache does: it serves
// each run of accesses Quiet promised from a local count without calling
// the process, and hands the run back through Skip before any other call.
type countdown struct {
	p           Process
	quiet, from int64
}

func (c *countdown) NextAt(addr uint64) uint64 {
	if c.quiet > 0 {
		c.quiet--
		return 0
	}
	c.handBack()
	mask := c.p.NextAt(addr)
	c.quiet = c.p.Quiet()
	c.from = c.quiet
	return mask
}

func (c *countdown) handBack() {
	if n := c.from - c.quiet; n > 0 {
		c.p.Skip(n)
	}
	c.quiet, c.from = 0, 0
}

func (c *countdown) Quiet() int64 { return 0 }
func (c *countdown) Skip(n int64) {}

func (c *countdown) SetCycleTime(cr float64) {
	c.handBack()
	c.p.SetCycleTime(cr)
}

func (c *countdown) SetEnabled(on bool) {
	c.handBack()
	c.p.SetEnabled(on)
}

// FuzzFaultProcess drives every fault process through a fuzzed schedule of
// accesses, rescales, and disable windows, and checks the invariants the
// simulator depends on: identical seeds and schedules produce identical
// traces, every mask fits the configured access width, and a disabled
// window neither faults nor advances the process, so a third twin that
// skips the window produces the same stream. A fourth twin serves every
// quiet run through Quiet and Skip, as the L1 data cache does, and must
// emit the stream of one NextAt per access.
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
		run := func(p Process, window bool) []uint64 {
			p.SetCycleTime(crs[crA%4])
			out := trace(p, steps)
			// The window follows the rescale: a redraw after it would
			// hide a disabled access that advanced the fault gap.
			p.SetCycleTime(crs[crB%4])
			if window {
				p.SetEnabled(false)
				for i := 0; i < 37; i++ {
					if mask := p.NextAt(uint64(i)); mask != 0 {
						t.Fatalf("disabled access %d injected %#x", i, mask)
					}
				}
				p.SetEnabled(true)
			}
			return append(out, trace(p, steps)...)
		}
		a, b, c := run(mk(), true), run(mk(), true), run(mk(), false)
		d := run(&countdown{p: mk()}, true)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("access %d: %#x vs %#x — identical schedules diverged", i, a[i], b[i])
			}
			if a[i] != c[i] {
				t.Fatalf("access %d: %#x vs %#x without the disabled window — disabled accesses advanced the process", i, a[i], c[i])
			}
			if a[i] != d[i] {
				t.Fatalf("access %d: %#x vs %#x through Quiet and Skip — a promised access was not quiet", i, a[i], d[i])
			}
			if a[i]>>32 != 0 {
				t.Fatalf("access %d: mask %#x exceeds the 32-bit access width", i, a[i])
			}
		}
	})
}
