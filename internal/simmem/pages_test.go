package simmem

import "testing"

// allocatedPages counts the pages of s that exist.
func allocatedPages(s *Space) int {
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestReadsAllocateNoPage(t *testing.T) {
	const size = 32 << 20
	s := NewSpace(size)
	buf := make([]byte, 3*PageSize/2) // every block but the first crosses a page boundary
	for a := PageBase; int(a) < size; a += PageSize {
		for _, off := range []Addr{0, 2, PageSize - 4} {
			v8, err8 := s.Load8(a + off)
			v32, err32 := s.Load32(a + off)
			if err8 != nil || err32 != nil || v8 != 0 || v32 != 0 {
				t.Fatalf("loads at %#x = %d, %d (%v, %v), want zeros", a+off, v8, v32, err8, err32)
			}
		}
		n := min(len(buf), size-int(a))
		if err := s.ReadBlock(a, buf[:n]); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf[:n] {
			if b != 0 {
				t.Fatalf("ReadBlock(%#x) byte %d = %#x, want 0", a, i, b)
			}
		}
	}
	if n := allocatedPages(s); n != 0 {
		t.Fatalf("reading every page of a 32 MiB space allocated %d pages, want 0", n)
	}
}

func TestStoreAllocatesOnePage(t *testing.T) {
	s := NewSpace(32 << 20)
	a := s.MustAlloc(64, 4)
	if err := s.Store8(a+3, 0x5a); err != nil {
		t.Fatal(err)
	}
	if n := allocatedPages(s); n != 1 {
		t.Fatalf("one Store8 allocated %d pages, want 1", n)
	}
	if err := s.Store8(a+4, 0xa5); err != nil {
		t.Fatal(err)
	}
	if n := allocatedPages(s); n != 1 {
		t.Fatalf("a second store to the same page allocated again: %d pages, want 1", n)
	}
}

func TestCommitAndRestoreOfShadowedPagesAllocateNothing(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.MustAlloc(8*PageSize, PageSize)
	touch := func(pages Addr, v uint32) {
		for p := Addr(0); p < pages; p++ {
			if err := s.Store32(a+p*PageSize, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Four pages exist at the checkpoint; the other four get their shadow
	// on the first commit.
	touch(4, 1)
	ck := s.NewCheckpoint()
	defer ck.Release()
	touch(8, 2)
	ck.Commit()
	if allocs := testing.AllocsPerRun(50, func() { touch(8, 3); ck.Commit() }); allocs != 0 {
		t.Errorf("Commit of shadowed pages allocates %.2f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { touch(8, 4); ck.Restore() }); allocs != 0 {
		t.Errorf("Restore of shadowed pages allocates %.2f times, want 0", allocs)
	}
	if v, _ := s.Load32(a + 5*PageSize); v != 3 {
		t.Fatalf("restored word = %d, want the committed 3", v)
	}
}
