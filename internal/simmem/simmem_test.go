package simmem

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// testSpaceSize is the size of newTestSpace's space.
const testSpaceSize = 64 * 1024

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace(testSpaceSize)
}

func TestAllocAlignmentAndGrowth(t *testing.T) {
	s := newTestSpace(t)
	a1 := s.MustAlloc(3, 1)
	if a1 != PageBase {
		t.Fatalf("first allocation at %#x, want %#x", a1, PageBase)
	}
	a2 := s.MustAlloc(4, 4)
	if a2%4 != 0 || a2 < a1+3 {
		t.Fatalf("second allocation at %#x not 4-aligned after first", a2)
	}
	a3 := s.MustAlloc(1, 64)
	if a3%64 != 0 {
		t.Fatalf("allocation at %#x not 64-aligned", a3)
	}
}

func TestAllocExhaustion(t *testing.T) {
	s := NewSpace(8192)
	if _, err := s.Alloc(8192, 1); err == nil {
		t.Fatal("allocation larger than remaining space should fail")
	}
	if _, err := s.Alloc(-1, 1); err == nil {
		t.Fatal("negative size should fail")
	}
	if _, err := s.Alloc(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment should fail")
	}
}

func TestNewSpaceTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny space")
		}
	}()
	NewSpace(16)
}

func TestRoundTrips(t *testing.T) {
	s := newTestSpace(t)
	a := s.MustAlloc(64, 8)
	if err := s.Store32(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load32(a)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("Load32 = %#x, %v", v, err)
	}
	// Little-endian layout is observable byte-wise.
	b, _ := s.Load8(a)
	if b != 0xef {
		t.Fatalf("low byte = %#x, want 0xef (little endian)", b)
	}
	if err := s.Store8(a+8, 0x7f); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load8(a + 8); got != 0x7f {
		t.Fatalf("Load8 = %#x", got)
	}
}

func TestNullPageTraps(t *testing.T) {
	s := newTestSpace(t)
	for _, a := range []Addr{0, 4, PageBase - 4} {
		if _, err := s.Load32(a); err == nil {
			t.Errorf("load in unmapped page at %#x should fail", a)
		}
		var ae *AccessError
		_, err := s.Load32(a)
		if !errors.As(err, &ae) {
			t.Errorf("error at %#x is %T, want *AccessError", a, err)
		}
	}
}

func TestOutOfRangeTraps(t *testing.T) {
	s := NewSpace(8192)
	if _, err := s.Load32(8192); err == nil {
		t.Error("load past end should fail")
	}
	// A nearly-straddling access aligns down and stays in range.
	if _, err := s.Load32(8190); err != nil {
		t.Errorf("aligned-down load at the edge should succeed: %v", err)
	}
	if _, err := s.Load8(8192); err == nil {
		t.Error("byte load past end should fail")
	}
	if err := s.Store8(9000, 1); err == nil {
		t.Error("store past end should fail")
	}
}

func TestMisalignmentAlignsDown(t *testing.T) {
	// Like the ARM cores the paper simulates, misaligned accesses ignore
	// the low address bits rather than trapping.
	s := newTestSpace(t)
	a := s.MustAlloc(16, 4)
	if err := s.Store32(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load32(a + 1)
	if err != nil || v != 0xdeadbeef {
		t.Errorf("misaligned 32-bit load = %#x, %v; want aligned-down value", v, err)
	}
	if err := s.Store32(a+2, 1); err != nil {
		t.Errorf("misaligned store should align down, got %v", err)
	}
	if v, _ := s.Load32(a); v != 1 {
		t.Errorf("misaligned store landed at %#x", v)
	}
}

func TestAlign(t *testing.T) {
	if Align(0x1003, 4) != 0x1000 || Align(0x1003, 2) != 0x1002 || Align(0x1003, 1) != 0x1003 {
		t.Fatal("Align rounds incorrectly")
	}
}

func TestAccessErrorMessage(t *testing.T) {
	s := newTestSpace(t)
	_, err := s.Load32(2)
	if err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("error = %v, want mention of unmapped page", err)
	}
}

func TestBlockOperations(t *testing.T) {
	s := newTestSpace(t)
	a := s.MustAlloc(128, 32)
	src := make([]byte, 32)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := s.WriteBlock(a, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 32)
	if err := s.ReadBlock(a, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: %#x != %#x", i, dst[i], src[i])
		}
	}
	if err := s.ReadBlock(Addr(testSpaceSize-4), make([]byte, 32)); err == nil {
		t.Error("block read past end should fail")
	}
	if err := s.WriteBlock(2, src); err == nil {
		t.Error("block write in null page should fail")
	}
}

func TestLoadStoreProperty(t *testing.T) {
	s := newTestSpace(t)
	base := s.MustAlloc(4096, 4)
	f := func(off uint16, v uint32) bool {
		a := base + Addr(off%1024)*4
		if err := s.Store32(a, v); err != nil {
			return false
		}
		got, err := s.Load32(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHelpers(t *testing.T) {
	s := newTestSpace(t)
	a := s.MustAlloc(64, 1)
	if err := StoreString(s, a, "GET /x"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := s.ReadBlock(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "GET /x\x00" {
		t.Fatalf("StoreString wrote %q, want the string and its NUL", buf)
	}
	if err := StoreString(s, 2, "x"); err == nil {
		t.Error("StoreString into null page should fail")
	}
}
