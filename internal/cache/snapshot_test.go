package cache

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// newQuietHierarchy builds a default hierarchy with the injector disabled.
func newQuietHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	space := simmem.NewSpace(1 << 20)
	inj := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := NewHierarchy(space, inj, DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSnapshotRestoreRoundTrip: writes made after a snapshot disappear on
// restore — every level's lines and the values read through the hierarchy
// return to the snapshot moment.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(8192, 32)
	if err != nil {
		t.Fatal(err)
	}
	for off := simmem.Addr(0); off < 512; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)+7); err != nil {
			t.Fatal(err)
		}
	}
	snap := h.Snapshot(nil)

	// Overwrite the same range and more — enough to force evictions and
	// write-backs, so both the caches and the space change.
	for off := simmem.Addr(0); off < 8192; off += 4 {
		if err := h.L1D.Store32(a+off, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}
	h.RestoreSnapshot(snap)

	for off := simmem.Addr(0); off < 512; off += 4 {
		v, err := h.L1D.Load32(a + off)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(off)+7 {
			t.Fatalf("after restore, [%#x] = %#x, want %#x", a+off, v, uint32(off)+7)
		}
	}
}

// TestSnapshotHasNoArchitecturalEffect: taking a snapshot (and committing
// more on top of an existing one) must not change stats, cycles, energy, or
// the space.
func TestSnapshotHasNoArchitecturalEffect(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(4096, 32)
	if err != nil {
		t.Fatal(err)
	}
	for off := simmem.Addr(0); off < 2048; off += 4 {
		if err := h.L1D.Store32(a+off, uint32(off)); err != nil {
			t.Fatal(err)
		}
	}
	stats, cyc, en := h.L1D.Stats, h.L1D.Cycles, h.L1D.Energy
	l2stats, memStats := h.L2.Stats, h.Mem.Stats
	var spaceByte uint8
	if spaceByte, err = h.Space.Load8(a); err != nil {
		t.Fatal(err)
	}

	snap := h.Snapshot(nil)
	snap = h.Snapshot(snap) // buffer-reusing path

	if h.L1D.Stats != stats || h.L1D.Cycles != cyc || h.L1D.Energy != en {
		t.Fatal("snapshot changed L1D accounting")
	}
	if h.L2.Stats != l2stats || h.Mem.Stats != memStats {
		t.Fatal("snapshot changed lower-level accounting")
	}
	if b, _ := h.Space.Load8(a); b != spaceByte {
		t.Fatal("snapshot touched the backing space")
	}
}

// TestSnapshotDeepCopies: mutating the hierarchy after a snapshot must not
// leak into the snapshot (the line buffers are copied, not aliased).
func TestSnapshotDeepCopies(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.L1D.Store32(a, 0x11111111); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot(nil)
	if err := h.L1D.Store32(a, 0x22222222); err != nil {
		t.Fatal(err)
	}
	h.RestoreSnapshot(snap)
	v, err := h.L1D.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11111111 {
		t.Fatalf("snapshot aliased live line data: read %#x", v)
	}
}

// TestSnapshotRestoresLRUDeterminism: after a restore, the victim-selection
// state matches the snapshot moment, so a replay of the same accesses
// produces the same evictions (containment keeps runs deterministic).
func TestSnapshotRestoresLRUDeterminism(t *testing.T) {
	h := newQuietHierarchy(t)
	a, err := h.Space.Alloc(64*1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	touch := func(n int) {
		for off := simmem.Addr(0); off < simmem.Addr(n); off += 32 {
			if _, err := h.L1D.Load32(a + off); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(16 * 1024)
	snap := h.Snapshot(nil)
	statsAt := h.L1D.Stats

	touch(32 * 1024) // first replay, perturbing everything
	h.RestoreSnapshot(snap)
	first := h.L1D.Stats.ReadMisses - statsAt.ReadMisses

	statsAt = h.L1D.Stats
	touch(32 * 1024) // second replay from the same restored state
	second := h.L1D.Stats.ReadMisses - statsAt.ReadMisses

	if first != second {
		t.Fatalf("replays from the same snapshot diverge: %d vs %d misses", first, second)
	}
}

// TestTrackedCommitCopiesTouchedFrames pins the work of a checkpoint as a
// count: committing the tracked snapshot copies the frames changed since
// its moment, not the table. Full copies are correct too, so the oracle
// cannot see a silent fallback to them; this count can. Only the latest
// snapshot can be committed or restored.
func TestTrackedCommitCopiesTouchedFrames(t *testing.T) {
	h := newQuietHierarchy(t)
	a := h.Space.MustAlloc(16<<10, 32)
	all := len(h.L1D.tab.lines) + len(h.L2.tab.lines)
	commit := func(snap *Snapshot, want int, what string) {
		t.Helper()
		if _, n := h.snapshot(snap); n != want {
			t.Fatalf("%s: commit copied %d frames, want %d", what, n, want)
		}
	}
	if err := h.L1D.Store32(a, 1); err != nil { // warm a's line in L1D and L2
		t.Fatal(err)
	}
	snap, n := h.snapshot(nil)
	if n != all {
		t.Fatalf("fresh snapshot copied %d frames, want all %d", n, all)
	}
	commit(snap, 0, "nothing accessed")

	if err := h.L1D.Store32(a+4, 2); err != nil {
		t.Fatal(err)
	}
	commit(snap, 1, "warmed L1D store hit")

	// b shares a's set in the direct-mapped L1D, so its fill evicts a's
	// dirty line: the L1D frame, a's L2 frame (the write-back hits it) and
	// the L2 frame b's fill takes.
	b := a + simmem.Addr(DefaultL1D.SizeBytes)
	if _, err := h.L1D.Load32(b); err != nil {
		t.Fatal(err)
	}
	commit(snap, 3, "miss with a dirty victim")

	// A DMA over b's line invalidates its L1D and L2 copies: cold-path
	// changes that no hit stamps.
	if err := h.DMA(b, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	commit(snap, 2, "DMA invalidate")

	// A read hit in the direct-mapped L1D and a fetch hit in the L1I
	// change nothing: a direct-mapped table keeps no replacement order,
	// and the L1I keeps no frames.
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if err := h.L1I.Fetch(a, 1); err != nil {
		t.Fatal(err)
	}
	h.Snapshot(snap)
	if _, err := h.L1D.Load32(a); err != nil {
		t.Fatal(err)
	}
	if err := h.L1I.Fetch(a, 1); err != nil {
		t.Fatal(err)
	}
	commit(snap, 0, "direct-mapped read and fetch hits")

	// A fresh snapshot replaces the restore point: retaking or restoring
	// the older one panics.
	h.Snapshot(nil)
	for what, f := range map[string]func(){
		"retaking":  func() { h.Snapshot(snap) },
		"restoring": func() { h.RestoreSnapshot(snap) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s an older snapshot did not panic", what)
				}
			}()
			f()
		}()
	}
}
