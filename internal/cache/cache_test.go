package cache

import (
	"testing"
	"testing/quick"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// newHierarchy builds a hierarchy with the given fault scale for tests.
func newTestHierarchy(t *testing.T, scale float64, det Detection, strikes int) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(scale)
	inj := fault.NewInjector(m, fault.NewRNG(1234), 32)
	h, err := NewHierarchy(space, inj, det, strikes)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// quiet returns a hierarchy whose injector effectively never fires.
func quiet(t *testing.T) *Hierarchy {
	t.Helper()
	return newTestHierarchy(t, 1e-9, DetectionNone, 1)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 4096, BlockSize: 30, Assoc: 1}, // not word multiple
		{SizeBytes: 4096, BlockSize: 24, Assoc: 1}, // word multiple, not pow2
		{SizeBytes: 5000, BlockSize: 32, Assoc: 1}, // not divisible
		{SizeBytes: 4096, BlockSize: 32, Assoc: 1, Latency: -1},
		{SizeBytes: 96 * 32, BlockSize: 32, Assoc: 1}, // 96 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if err := DefaultL1D.Validate(); err != nil {
		t.Errorf("default L1D invalid: %v", err)
	}
	if err := DefaultL2.Validate(); err != nil {
		t.Errorf("default L2 invalid: %v", err)
	}
}

func TestWordParity(t *testing.T) {
	cases := []struct {
		v    uint32
		want byte
	}{
		{0, 0}, {1, 1}, {3, 0}, {7, 1}, {0xffffffff, 0}, {0x80000000, 1},
	}
	for _, c := range cases {
		if got := wordParity(c.v); got != c.want {
			t.Errorf("wordParity(%#x) = %d, want %d", c.v, got, c.want)
		}
	}
	// XOR-ing one bit always flips parity.
	f := func(v uint32, bit uint8) bool {
		b := uint32(1) << (bit % 32)
		return wordParity(v) != wordParity(v^b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// xorFoldParity is the shift-and-xor even parity of a word, the
// reference for wordParity's population count.
func xorFoldParity(v uint32) byte {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

// TestWordParityMatchesXorFold compares wordParity with the xor fold over
// every word with one or two bits set and a million seeded random words.
func TestWordParityMatchesXorFold(t *testing.T) {
	check := func(v uint32) {
		if got, want := wordParity(v), xorFoldParity(v); got != want {
			t.Fatalf("wordParity(%#x) = %d, xor fold %d", v, got, want)
		}
	}
	check(0)
	for i := range 32 {
		check(1 << i)
		for j := range i {
			check(1<<i | 1<<j)
		}
	}
	rng := fault.NewRNG(0x9a11)
	for range 1000000 {
		check(rng.Uint32())
	}
}

func TestReadWriteThroughHierarchy(t *testing.T) {
	h := quiet(t)
	a := h.Space.MustAlloc(4096, 4)
	for i := uint32(0); i < 64; i++ {
		if err := h.L1D.Store32(a+simmem.Addr(i*4), i*0x01010101); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 64; i++ {
		v, err := h.L1D.Load32(a + simmem.Addr(i*4))
		if err != nil || v != i*0x01010101 {
			t.Fatalf("word %d = %#x, %v", i, v, err)
		}
	}
}

func TestSubWordAccesses(t *testing.T) {
	h := quiet(t)
	a := h.Space.MustAlloc(64, 4)
	if err := h.L1D.Store32(a, 0x44332211); err != nil {
		t.Fatal(err)
	}
	b, err := h.L1D.Load8(a + 2)
	if err != nil || b != 0x33 {
		t.Fatalf("Load8 = %#x, %v", b, err)
	}
	if err := h.L1D.Store8(a+3, 0xaa); err != nil {
		t.Fatal(err)
	}
	w, _ := h.L1D.Load32(a)
	if w != 0xaa332211 {
		t.Fatalf("after Store8: %#x", w)
	}
}

func TestMissAndHitAccounting(t *testing.T) {
	h := quiet(t)
	a := h.Space.MustAlloc(4096, 32)
	// First touch of a line misses; the second hits.
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if h.L1D.Stats.ReadMisses != 1 {
		t.Fatalf("read misses = %d, want 1", h.L1D.Stats.ReadMisses)
	}
	before := h.L1D.Cycles
	if _, err := h.L1D.Load32(a + 4); err != nil {
		t.Fatal(err)
	}
	if h.L1D.Stats.ReadMisses != 1 {
		t.Fatalf("second access same line should hit, misses = %d", h.L1D.Stats.ReadMisses)
	}
	hitCost := h.L1D.Cycles - before
	if hitCost != DefaultL1D.Latency {
		t.Fatalf("hit cost = %v cycles, want %v", hitCost, DefaultL1D.Latency)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	h := quiet(t)
	// 4KB direct-mapped: addresses 4096 apart collide.
	a := h.Space.MustAlloc(4096, 4096)
	b := h.Space.MustAlloc(4096, 4096)
	if err := h.L1D.Store32(a, 0x1111); err != nil {
		t.Fatal(err)
	}
	if err := h.L1D.Store32(b, 0x2222); err != nil { // evicts dirty line a
		t.Fatal(err)
	}
	if h.L1D.Stats.Writebacks == 0 {
		t.Fatal("dirty eviction should write back")
	}
	// Value a survives the round trip through L2.
	v, err := h.L1D.Load32(a)
	if err != nil || v != 0x1111 {
		t.Fatalf("after eviction, a = %#x, %v", v, err)
	}
}

func TestCycleTimeScalesLatency(t *testing.T) {
	h := quiet(t)
	a := h.Space.MustAlloc(64, 4)
	if _, err := h.L1D.Load32(a); err != nil { // fill
		t.Fatal(err)
	}
	measure := func(cr float64) float64 {
		h.L1D.SetCycleTime(cr)
		before := h.L1D.Cycles
		if _, err := h.L1D.Load32(a); err != nil {
			t.Fatal(err)
		}
		return h.L1D.Cycles - before
	}
	full := measure(1)
	half := measure(0.5)
	if half >= full {
		t.Fatalf("hit at Cr=0.5 costs %v, full %v: over-clocking must shrink latency", half, full)
	}
	if half != full/2 {
		t.Fatalf("hit cost should scale linearly: %v vs %v", half, full)
	}
}

func TestEnergyWeightsScaleWithSwing(t *testing.T) {
	h := quiet(t)
	a := h.Space.MustAlloc(64, 4)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	h.L1D.Energy = EnergyWeights{}
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	atFull := h.L1D.Energy.ReadSwing
	h.L1D.SetCycleTime(0.25)
	h.L1D.Energy = EnergyWeights{}
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	atQuarter := h.L1D.Energy.ReadSwing
	if atQuarter >= atFull {
		t.Fatal("per-access energy weight must shrink with the swing")
	}
	if atQuarter > 0.6*atFull || atQuarter < 0.4*atFull {
		t.Fatalf("swing weight at Cr=0.25 = %v of full, want ~0.53 (45%% reduction band)", atQuarter/atFull)
	}
}

func TestBadAddressesTrap(t *testing.T) {
	h := quiet(t)
	if _, err := h.L1D.Load32(4); err == nil {
		t.Error("null-page load should trap")
	}
	if _, err := h.L1D.Load32(simmem.PageBase + 2); err != nil {
		t.Error("misaligned load should align down, not trap")
	}
	if err := h.L1D.Store32(1<<20+64, 1); err == nil {
		t.Error("out-of-range store should trap")
	}
}

func TestL2SharedBetweenL1s(t *testing.T) {
	h := quiet(t)
	code := h.Space.MustAlloc(8192, 128)
	if err := h.L1I.Fetch(code); err != nil {
		t.Fatal(err)
	}
	if h.L1I.Stats.ReadMisses != 1 {
		t.Fatalf("first fetch should miss, got %d", h.L1I.Stats.ReadMisses)
	}
	if err := h.L1I.Fetch(code + 4); err != nil {
		t.Fatal(err)
	}
	if h.L1I.Stats.ReadMisses != 1 {
		t.Fatal("second fetch in line should hit")
	}
	// The I-miss landed in the unified L2.
	if h.L2.Stats.Reads == 0 {
		t.Fatal("instruction miss should reach the unified L2")
	}
}

func TestAccessorGetters(t *testing.T) {
	h := quiet(t)
	if h.L1D.CycleTime() != 1 {
		t.Fatalf("CycleTime = %v", h.L1D.CycleTime())
	}
	if h.StallCycles() != 0 {
		t.Fatalf("fresh hierarchy stalls = %v", h.StallCycles())
	}
	a := h.Space.MustAlloc(64, 4)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if h.StallCycles() <= 0 {
		t.Fatal("stall cycles should accumulate after a miss")
	}
	s := h.L1D.Stats
	if s.Accesses() != 1 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	if s.MissRate() != 1 {
		t.Fatalf("miss rate = %v, want 1 (single cold miss)", s.MissRate())
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Fatal("empty stats should report zero miss rate")
	}
}

func TestSubWordErrorPropagation(t *testing.T) {
	// Accesses beyond the end of the space must fail through every width.
	h := quiet(t)
	end := simmem.Addr(h.Space.Size())
	if _, err := h.L1D.Load8(end + 4); err == nil {
		t.Error("Load8 past end accepted")
	}
	if err := h.L1D.Store8(end+4, 1); err == nil {
		t.Error("Store8 past end accepted")
	}
	if err := h.L1D.Store32(2, 1); err == nil {
		t.Error("Store32 into null page accepted")
	}
}

func TestNewHierarchyWithBadConfig(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	bad := HierarchyConfig{L1D: Config{SizeBytes: 5000, BlockSize: 32, Assoc: 1}}
	if _, err := NewHierarchyWith(space, inj, DetectionNone, 1, bad); err == nil {
		t.Fatal("invalid L1D geometry accepted")
	}
	bad = HierarchyConfig{L2: Config{SizeBytes: 5000, BlockSize: 128, Assoc: 4}}
	if _, err := NewHierarchyWith(space, inj, DetectionNone, 1, bad); err == nil {
		t.Fatal("invalid L2 geometry accepted")
	}
}
