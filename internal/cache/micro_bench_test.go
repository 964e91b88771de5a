package cache

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// Micro-benchmarks of the simulator's hot paths. The experiment campaigns
// spend almost all of their time in L1D accesses, so these are the numbers
// that govern how many packets a laptop can simulate per second.

func benchHierarchy(b *testing.B, det Detection, scale float64) *Hierarchy {
	b.Helper()
	space := simmem.NewSpace(1 << 22)
	m := fault.NewModel(scale)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := NewHierarchy(space, inj, det, 2)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkL1DHitNoDetection(b *testing.B) {
	h := benchHierarchy(b, DetectionNone, 1)
	a := h.Space.MustAlloc(64, 32)
	if err := h.L1D.Store32(a, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.L1D.Load32(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL1DHitParity(b *testing.B) {
	h := benchHierarchy(b, DetectionParity, 1)
	a := h.Space.MustAlloc(64, 32)
	if err := h.L1D.Store32(a, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.L1D.Load32(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL1DHitECC(b *testing.B) {
	h := benchHierarchy(b, DetectionECC, 1)
	a := h.Space.MustAlloc(64, 32)
	if err := h.L1D.Store32(a, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.L1D.Load32(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL1DMissStream(b *testing.B) {
	h := benchHierarchy(b, DetectionParity, 1)
	base := h.Space.MustAlloc(1<<20, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through 1 MiB: every fourth access misses the L1.
		addr := base + simmem.Addr(i*32)%(1<<20)
		if _, err := h.L1D.Load32(addr &^ 3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDisabledTelemetryNoAllocsOnAccess asserts that with no telemetry
// installed (the default), the L1D access hot path allocates nothing —
// the guarantee behind the "disabled telemetry costs one predictable
// branch" claim. Guarded by AllocsPerRun rather than a benchmark so a
// regression fails the suite instead of silently shifting a number.
func TestDisabledTelemetryNoAllocsOnAccess(t *testing.T) {
	for _, det := range []Detection{DetectionNone, DetectionParity, DetectionECC} {
		h := benchHierarchyT(t, det, 1)
		a := h.Space.MustAlloc(64, 32)
		if err := h.L1D.Store32(a, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := h.L1D.Load32(a); err != nil {
				t.Fatal(err)
			}
			if err := h.L1D.Store32(a, 2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: L1D access allocated %.1f times per op with telemetry off, want 0", det, allocs)
		}
	}
}

func benchHierarchyT(t *testing.T, det Detection, scale float64) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 22)
	m := fault.NewModel(scale)
	inj := fault.NewInjector(m, fault.NewRNG(1), 32)
	h, err := NewHierarchy(space, inj, det, 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func BenchmarkL1DStore(b *testing.B) {
	h := benchHierarchy(b, DetectionParity, 1)
	a := h.Space.MustAlloc(64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.L1D.Store32(a, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL1DLoad8Stream reads a 1500-byte packet buffer one byte at a
// time, the access pattern of md5's and crc's payload loops: each Load8
// reads its whole word, so a word takes four hits and a line thirty-two.
func BenchmarkL1DLoad8Stream(b *testing.B) {
	h := benchHierarchy(b, DetectionParity, 1)
	const n = 1500
	buf := h.Space.MustAlloc(n, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.L1D.Load8(buf + simmem.Addr(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}
