package simmem

import (
	"encoding/binary"
	"testing"
)

func newTestTable(t *testing.T) (*StateTable, *Space) {
	t.Helper()
	space := NewSpace(1 << 16)
	st, err := NewStateTable(space, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(space); err != nil {
		t.Fatalf("init: %v", err)
	}
	return st, space
}

func TestStateTableInitSealsEveryRecord(t *testing.T) {
	st, space := newTestTable(t)
	for idx := 0; idx < st.Records(); idx++ {
		words, err := st.Lookup(space, idx)
		if err != nil {
			t.Fatalf("record %d: %v", idx, err)
		}
		for w, v := range words {
			if v != 0 {
				t.Errorf("record %d word %d = %d after Init, want 0", idx, w, v)
			}
		}
	}
}

func TestStateTableIsolationGeometry(t *testing.T) {
	space := NewSpace(1 << 16)
	if _, err := space.Alloc(4, 4); err != nil { // misalign the frontier
		t.Fatal(err)
	}
	st, err := NewStateTable(space, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.base%stateTableIsolation != 0 {
		t.Errorf("table base %#x is not %d-byte aligned", st.base, stateTableIsolation)
	}
	next, err := space.Alloc(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	span := int(next - st.base)
	if span%stateTableIsolation != 0 {
		t.Errorf("next allocation %d bytes past table base; a cache line spans the table boundary", span)
	}
}

func TestStateTableStoreSealLookupRoundtrip(t *testing.T) {
	st, space := newTestTable(t)
	want := []uint32{0xdeadbeef, 42, 7}
	for w, v := range want {
		if err := st.StoreField(space, 5, w, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(space, 5); err != nil {
		t.Fatal(err)
	}
	got, err := st.Lookup(space, 5)
	if err != nil {
		t.Fatalf("lookup after seal: %v", err)
	}
	for w := range want {
		if got[w] != want[w] {
			t.Errorf("word %d = %#x, want %#x", w, got[w], want[w])
		}
	}
}

func TestStateTableDetectsCorruption(t *testing.T) {
	st, space := newTestTable(t)
	if err := st.StoreField(space, 2, 0, 99); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(space, 2); err != nil {
		t.Fatal(err)
	}
	// Flip one stored bit behind the table's back.
	v, _ := space.Load32(st.FieldAddr(2, 0))
	if err := space.Store32(st.FieldAddr(2, 0), v^4); err != nil {
		t.Fatal(err)
	}
	// No handler installed: corruption is an unprotected-access error.
	if _, err := st.Lookup(space, 2); err == nil {
		t.Fatal("corrupt record verified with no OnCorrupt handler")
	}
	// With a repair handler the record is rebuilt and re-read.
	fired := 0
	st.OnCorrupt = func(idx int) error {
		fired++
		if idx != 2 {
			t.Fatalf("OnCorrupt idx = %d, want 2", idx)
		}
		buf := make([]byte, st.RecordBytes())
		st.EncodeShadow(idx, buf)
		return space.WriteBlock(st.RecordAddr(idx), buf)
	}
	words, err := st.Lookup(space, 2)
	if err != nil {
		t.Fatalf("lookup with repair: %v", err)
	}
	if fired != 1 {
		t.Errorf("OnCorrupt fired %d times, want 1", fired)
	}
	if words[0] != 99 {
		t.Errorf("repaired word = %d, want the golden 99", words[0])
	}
}

func TestStateTableChecksumBindsIndex(t *testing.T) {
	st, space := newTestTable(t)
	if err := st.StoreField(space, 1, 0, 77); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(space, 1); err != nil {
		t.Fatal(err)
	}
	// Copy record 1 wholesale into slot 3: payload and checksum both move,
	// but the checksum is seeded with the record index, so the transplanted
	// record must fail verification.
	buf := make([]byte, st.RecordBytes())
	st.EncodeShadow(1, buf)
	if err := space.WriteBlock(st.RecordAddr(3), buf); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Lookup(space, 3); err == nil {
		t.Error("record transplanted into the wrong slot verified")
	}
}

func TestStateTableShadowCommitRestore(t *testing.T) {
	st, space := newTestTable(t)
	if err := st.StoreField(space, 4, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(space, 4); err != nil {
		t.Fatal(err)
	}
	st.CommitShadow()
	committedSum := st.ShadowSum(4)

	// An aborted packet's shadow writes roll back with RestoreShadow.
	if err := st.StoreField(space, 4, 1, 20); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(space, 4); err != nil {
		t.Fatal(err)
	}
	st.RestoreShadow()
	if got := st.ShadowWord(4, 1); got != 10 {
		t.Errorf("shadow word after restore = %d, want committed 10", got)
	}
	if st.ShadowSum(4) != committedSum {
		t.Error("shadow sum did not roll back with the payload")
	}

	// Untouched records are unaffected by either boundary operation.
	if got := st.ShadowWord(0, 0); got != 0 {
		t.Errorf("untouched record shadow = %d, want 0", got)
	}
}

func TestStateTableEncodeShadowLayout(t *testing.T) {
	st, space := newTestTable(t)
	for w, v := range []uint32{1, 2, 3} {
		if err := st.StoreField(space, 6, w, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(space, 6); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.RecordBytes())
	st.EncodeShadow(6, buf)
	// The encoded image must be byte-identical to the sealed stored bytes:
	// this equality is what makes a ladder rebuild an exact restore.
	for i := 0; i < st.RecordBytes(); i += 4 {
		stored, err := space.Load32(st.RecordAddr(6) + Addr(i))
		if err != nil {
			t.Fatal(err)
		}
		if enc := binary.LittleEndian.Uint32(buf[i:]); enc != stored {
			t.Errorf("image word %d = %#x, stored = %#x", i/4, enc, stored)
		}
	}
	if got := st.SumOf([]uint32{1, 2, 3}, 6); got != st.ShadowSum(6) {
		t.Errorf("SumOf = %#x, shadow sum = %#x", got, st.ShadowSum(6))
	}
}

func TestStateTableZeroShadowReseals(t *testing.T) {
	st, space := newTestTable(t)
	for w, v := range []uint32{5, 6, 7} {
		if err := st.StoreField(space, 7, w, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(space, 7); err != nil {
		t.Fatal(err)
	}
	st.ZeroShadow(7)
	// The zeroed shadow must be internally consistent: its sum is the sum
	// of zeros, so a DMA of the encoded image yields a verifiable record.
	if got, want := st.ShadowSum(7), st.SumOf([]uint32{0, 0, 0}, 7); got != want {
		t.Errorf("zeroed shadow sum = %#x, want %#x", got, want)
	}
	buf := make([]byte, st.RecordBytes())
	st.EncodeShadow(7, buf)
	if err := space.WriteBlock(st.RecordAddr(7), buf); err != nil {
		t.Fatal(err)
	}
	words, err := st.Lookup(space, 7)
	if err != nil {
		t.Fatalf("evicted record does not verify: %v", err)
	}
	for w, v := range words {
		if v != 0 {
			t.Errorf("evicted word %d = %d, want 0", w, v)
		}
	}
}
