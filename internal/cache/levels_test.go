package cache

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// Deeper behavioural tests of the multi-level machinery: L2 associativity
// and LRU, write-back chains to memory, and DMA-range invalidation.

func TestL2LRUReplacement(t *testing.T) {
	space := simmem.NewSpace(1 << 22)
	// Tiny 2-way L2: 2 sets of 2 ways, 128-byte lines.
	h, err := newHierarchy(space, fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32), DetectionNone, 1,
		DefaultL1D, Config{SizeBytes: 512, BlockSize: 128, Assoc: 2, Latency: 15})
	if err != nil {
		t.Fatal(err)
	}
	l2, mem := h.L2, h.Mem
	base := space.MustAlloc(8192, 512)
	buf := make([]byte, 128)
	// Three lines mapping to the same set (stride = 256 with 2 sets).
	a, b, c := base, base+512, base+1024
	for _, addr := range []simmem.Addr{a, b, a, c} { // a is re-used: b becomes LRU
		if _, err := l2.FetchLine(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	reads := mem.Stats.Reads
	if _, err := l2.FetchLine(a, buf); err != nil { // must still be resident
		t.Fatal(err)
	}
	if mem.Stats.Reads != reads {
		t.Fatal("a should have survived: it was more recently used than b")
	}
	if _, err := l2.FetchLine(b, buf); err != nil { // b was evicted
		t.Fatal(err)
	}
	if mem.Stats.Reads != reads+1 {
		t.Fatal("b should have been the LRU victim")
	}
}

func TestL2DirtyEvictionReachesMemory(t *testing.T) {
	space := simmem.NewSpace(1 << 22)
	h, err := newHierarchy(space, fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32), DetectionNone, 1,
		DefaultL1D, Config{SizeBytes: 256, BlockSize: 128, Assoc: 1, Latency: 15})
	if err != nil {
		t.Fatal(err)
	}
	l2 := h.L2
	base := space.MustAlloc(8192, 512)
	line := make([]byte, 128)
	for i := range line {
		line[i] = 0xab
	}
	if _, err := l2.StoreLine(base, line); err != nil {
		t.Fatal(err)
	}
	// Backing store is still clean: the write sits dirty in L2.
	if v, _ := space.Load8(base); v != 0 {
		t.Fatal("write-back cache must not write through")
	}
	// Evict by touching the conflicting line (direct-mapped, 2 sets,
	// stride 256).
	if _, err := l2.FetchLine(base+256, line); err != nil {
		t.Fatal(err)
	}
	if v, _ := space.Load8(base); v != 0xab {
		t.Fatalf("dirty eviction did not reach memory: %#x", v)
	}
	if l2.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", l2.Stats.Writebacks)
	}
}

func TestL1MissGoesThroughBothLevels(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1e-9)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := NewHierarchy(space, inj, DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := space.MustAlloc(4096, 32)
	before := h.L1D.Cycles
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	cold := h.L1D.Cycles - before
	// Cold miss: L1 latency + L2 latency + memory latency.
	if cold < DefaultL1D.Latency+DefaultL2.Latency+DefaultMemoryLatency {
		t.Fatalf("cold miss cost %v cycles, too cheap", cold)
	}
	// Second line in the same L2 line: L1 miss, L2 hit.
	before = h.L1D.Cycles
	if _, err := h.L1D.Load32(a + 32); err != nil {
		t.Fatal(err)
	}
	l2hit := h.L1D.Cycles - before
	if l2hit >= cold {
		t.Fatalf("L2 hit (%v) should be cheaper than memory (%v)", l2hit, cold)
	}
	if l2hit < DefaultL1D.Latency+DefaultL2.Latency {
		t.Fatalf("L2 hit cost %v, too cheap", l2hit)
	}
}

func TestInvalidateRangeDropsExactLines(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1e-9)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := NewHierarchy(space, inj, DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := space.MustAlloc(256, 32)
	for off := simmem.Addr(0); off < 256; off += 4 {
		if err := h.L1D.Store32(a+off, 0xffffffff); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate the middle two lines only.
	h.L1D.InvalidateRange(a+32, 64)
	misses := h.L1D.Stats.ReadMisses
	if _, err := h.L1D.Load32(a); err != nil { // untouched line: hit
		t.Fatal(err)
	}
	if h.L1D.Stats.ReadMisses != misses {
		t.Fatal("line outside the range was invalidated")
	}
	if _, err := h.L1D.Load32(a + 64); err != nil { // inside range: miss
		t.Fatal(err)
	}
	if h.L1D.Stats.ReadMisses != misses+1 {
		t.Fatal("line inside the range survived")
	}
}

// TestCoherentDMAPreservesDirtyLineNeighbours pins the write-back half of
// CoherentDMA. A store sits dirty in the caches; a plain DMA to a
// different address in the same line discards it with the invalidation,
// silently reverting the neighbour to its stale memory image. CoherentDMA
// must flush the dirty bytes to the backing store first, so the neighbour
// survives the invalidation. This is the state-repair ladder's coherence
// contract: rewriting one flow record must not destroy the unwritten
// stores of the records sharing its cache lines.
func TestCoherentDMAPreservesDirtyLineNeighbours(t *testing.T) {
	build := func() (*Hierarchy, simmem.Addr) {
		space := simmem.NewSpace(1 << 20)
		m := fault.NewModel(1e-9)
		inj := fault.NewInjector(m, fault.NewRNG(1), 32)
		h, err := NewHierarchy(space, inj, DetectionNone, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := space.MustAlloc(256, 256)
		// The neighbour's store: dirty in L1, not written back.
		if err := h.L1D.Store32(a, 0xfeedface); err != nil {
			t.Fatal(err)
		}
		return h, a
	}
	image := []byte{1, 2, 3, 4}

	// Plain DMA to the same L1 line (word 1, the neighbour is word 0)
	// loses the neighbour — the documented incoherent behaviour.
	h, a := build()
	if err := h.DMA(a+4, image); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.L1D.Load32(a); v == 0xfeedface {
		t.Fatal("plain DMA kept the dirty neighbour; the coherent variant is untestable")
	}

	// CoherentDMA flushes first: the neighbour's bytes survive.
	h, a = build()
	if err := h.CoherentDMA(a+4, image); err != nil {
		t.Fatal(err)
	}
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface {
		t.Fatalf("neighbour word = %#x after CoherentDMA, want 0xfeedface", v)
	}
	// The DMA payload itself landed.
	got, err := h.L1D.Load32(a + 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x04030201 {
		t.Fatalf("DMA payload = %#x, want 0x04030201", got)
	}

	// A dirty line in the L2 only (evicted from L1) is flushed too.
	h, a = build()
	// Evict the dirty L1 line into L2: the L1D is 4 KB direct-mapped, so
	// touching a+4096 claims the same set.
	if _, err := h.L1D.Load32(a + 4096); err != nil {
		t.Fatal(err)
	}
	if err := h.CoherentDMA(a+4, image); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.L1D.Load32(a); v != 0xfeedface {
		t.Fatalf("L2-dirty neighbour word = %#x after CoherentDMA, want 0xfeedface", v)
	}
}

func TestDMAOverwritesCachedData(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	m := fault.NewModel(1e-9)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := NewHierarchy(space, inj, DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := space.MustAlloc(64, 32)
	// Pull the (zero) line into L1D and L2 — the "wild read" scenario.
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	// DMA a packet over it.
	if err := h.DMA(a, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x04030201 {
		t.Fatalf("read after DMA = %#x, want fresh data (stale cache?)", v)
	}
}

func TestMainMemoryBounds(t *testing.T) {
	space := simmem.NewSpace(1 << 16)
	mem := NewMainMemory(space)
	buf := make([]byte, 128)
	if _, err := mem.FetchLine(1<<16, buf); err == nil {
		t.Fatal("fetch past end of space should fail")
	}
	if _, err := mem.StoreLine(2, buf); err == nil {
		t.Fatal("store into the null page should fail")
	}
}
