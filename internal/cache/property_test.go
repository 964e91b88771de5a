package cache

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// TestHierarchyMatchesReferenceMemory drives long random operation
// sequences through the full fault-free hierarchy and through a flat
// reference memory, and demands bit-identical results — the fundamental
// correctness property of the cache simulator (write-back, write-allocate,
// eviction, multi-level inclusion, parity bookkeeping, sub-word
// read-modify-write).
func TestHierarchyMatchesReferenceMemory(t *testing.T) {
	for _, det := range []Detection{DetectionNone, DetectionParity, DetectionECC} {
		det := det
		t.Run(det.String(), func(t *testing.T) {
			t.Parallel()
			space := simmem.NewSpace(1 << 20)
			ref := simmem.NewSpace(1 << 20)
			m := fault.NewModel(1)
			inj := fault.NewInjector(m, fault.NewRNG(1), 32)
			inj.SetEnabled(false)
			h, err := NewHierarchy(space, inj, det, 2)
			if err != nil {
				t.Fatal(err)
			}
			// A working set deliberately larger than the L1 and
			// overlapping L2 sets, to force evictions and refills.
			base := space.MustAlloc(64*1024, 64)
			if _, err := ref.Alloc(64*1024, 64); err != nil {
				t.Fatal(err)
			}

			rng := fault.NewRNG(99)
			for op := 0; op < 200000; op++ {
				addr := base + simmem.Addr(rng.Intn(64*1024-8))
				switch rng.Intn(4) {
				case 0:
					v := rng.Uint32()
					if err := h.L1D.Store32(addr, v); err != nil {
						t.Fatal(err)
					}
					if err := ref.Store32(addr, v); err != nil {
						t.Fatal(err)
					}
				case 1:
					a, errA := h.L1D.Load32(addr)
					b, errB := ref.Load32(addr)
					if errA != nil || errB != nil {
						t.Fatalf("op %d: load errors %v %v", op, errA, errB)
					}
					if a != b {
						t.Fatalf("op %d: Load32(%#x) = %#x, ref %#x", op, addr, a, b)
					}
				case 2:
					v := uint8(rng.Uint32())
					if err := h.L1D.Store8(addr, v); err != nil {
						t.Fatal(err)
					}
					if err := ref.Store8(addr, v); err != nil {
						t.Fatal(err)
					}
				case 3:
					a, _ := h.L1D.Load8(addr)
					b, _ := ref.Load8(addr)
					if a != b {
						t.Fatalf("op %d: Load8(%#x) = %#x, ref %#x", op, addr, a, b)
					}
				}
			}
			// Final sweep: every byte of the working set agrees after all
			// the dirty lines are flushed.
			h.L1D.InvalidateAllWriteback(t)
			l2buf := make([]byte, 64*1024)
			for off := 0; off < len(l2buf); off += DefaultL1D.BlockSize { // an L1D line at a time
				if _, err := h.L2.FetchLine(base+simmem.Addr(off), l2buf[off:off+DefaultL1D.BlockSize]); err != nil {
					t.Fatal(err)
				}
			}
			for off := 0; off < 64*1024; off++ {
				want, _ := ref.Load8(base + simmem.Addr(off))
				if l2buf[off] != want {
					t.Fatalf("final state differs at offset %d: %#x vs %#x", off, l2buf[off], want)
				}
			}
		})
	}
}
