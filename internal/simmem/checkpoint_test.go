package simmem

import (
	"math/bits"
	"testing"
)

// dirtyPages returns the number of pages of s written since tracking was
// last reset (zero when tracking is off).
func dirtyPages(s *Space) int {
	n := 0
	for _, w := range s.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestDirtyTrackingOffByDefault(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.MustAlloc(64, 4)
	if err := s.Store32(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if dirtyPages(s) != 0 {
		t.Fatalf("DirtyPages = %d before any checkpoint", dirtyPages(s))
	}
}

func TestCheckpointRestoreUndoesStores(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.MustAlloc(256, 4)
	if err := s.Store32(a, 0x11111111); err != nil {
		t.Fatal(err)
	}
	ck := s.NewCheckpoint()
	defer ck.Release()

	if err := s.Store32(a, 0x22222222); err != nil {
		t.Fatal(err)
	}
	if err := s.Store8(a+100, 0x7f); err != nil {
		t.Fatal(err)
	}
	if got := dirtyPages(s); got != 1 {
		t.Fatalf("DirtyPages = %d, want 1 (both stores hit one page)", got)
	}
	if n := ck.Restore(); n != 1 {
		t.Fatalf("Restore returned %d pages, want 1", n)
	}
	v, err := s.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11111111 {
		t.Fatalf("restored word = %#x, want 0x11111111", v)
	}
	b, _ := s.Load8(a + 100)
	if b != 0 {
		t.Fatalf("restored byte = %#x, want 0", b)
	}
	if dirtyPages(s) != 0 {
		t.Fatal("restore must clear the dirty bitmap")
	}
}

func TestCheckpointCommitAdvancesRestorePoint(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.MustAlloc(8, 4)
	ck := s.NewCheckpoint()
	defer ck.Release()

	if err := s.Store32(a, 1); err != nil {
		t.Fatal(err)
	}
	if n := ck.Commit(); n != 1 {
		t.Fatalf("Commit returned %d pages, want 1", n)
	}
	if err := s.Store32(a, 2); err != nil {
		t.Fatal(err)
	}
	ck.Restore()
	v, _ := s.Load32(a)
	if v != 1 {
		t.Fatalf("after commit+restore, word = %d, want 1 (committed value)", v)
	}
}

func TestCheckpointRestoresBrk(t *testing.T) {
	s := NewSpace(64 << 10)
	ck := s.NewCheckpoint()
	defer ck.Release()
	brk0 := s.Brk()

	a, err := s.Alloc(4096, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store32(a, 42); err != nil {
		t.Fatal(err)
	}
	ck.Restore()
	if s.Brk() != brk0 {
		t.Fatalf("Brk = %#x after restore, want %#x", s.Brk(), brk0)
	}
	// Commit after a new allocation advances the frontier snapshot.
	b, err := s.Alloc(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	ck.Commit()
	brk1 := s.Brk()
	ck.Restore()
	if s.Brk() != brk1 {
		t.Fatalf("Brk = %#x after commit+restore, want %#x", s.Brk(), brk1)
	}
}

func TestCheckpointTracksWriteBlock(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.MustAlloc(3*PageSize, 32)
	ck := s.NewCheckpoint()
	defer ck.Release()

	buf := make([]byte, 2*PageSize)
	for i := range buf {
		buf[i] = 0xab
	}
	if err := s.WriteBlock(a, buf); err != nil {
		t.Fatal(err)
	}
	if got := dirtyPages(s); got < 2 {
		t.Fatalf("DirtyPages = %d, want >= 2 for a 2-page block write", got)
	}
	ck.Restore()
	got := make([]byte, len(buf))
	if err := s.ReadBlock(a, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after restore, want 0", i, b)
		}
	}
}

func TestCheckpointReleaseStopsTracking(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.MustAlloc(8, 4)
	ck := s.NewCheckpoint()
	ck.Release()
	if err := s.Store32(a, 9); err != nil {
		t.Fatal(err)
	}
	if dirtyPages(s) != 0 {
		t.Fatal("released checkpoint must not keep tracking")
	}
}

func TestRestoreFullScribble(t *testing.T) {
	// Scribble over the entire mapped space, restore, and verify the image
	// is byte-identical to the snapshot — the invariant the fault-containment
	// golden-equivalence test builds on.
	const size = 128 << 10
	s := NewSpace(size)
	a := s.MustAlloc(4096, 4)
	for off := Addr(0); off < 4096; off += 4 {
		if err := s.Store32(a+off, uint32(off)*0x9e3779b9); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, size-int(PageBase))
	if err := s.ReadBlock(PageBase, want); err != nil {
		t.Fatal(err)
	}
	ck := s.NewCheckpoint()
	defer ck.Release()
	for addr := PageBase; int(addr)+4 <= size; addr += 4 {
		if err := s.Store32(addr, 0xffffffff); err != nil {
			t.Fatal(err)
		}
	}
	if n := ck.Restore(); n == 0 {
		t.Fatal("scribble marked no pages dirty")
	}
	got := make([]byte, len(want))
	if err := s.ReadBlock(PageBase, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs after restore: %#x != %#x", i, got[i], want[i])
		}
	}
}
