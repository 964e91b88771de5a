package cache

import (
	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// StrongARM-110-like hierarchy parameters (Section 5.1).
var (
	// DefaultL1D: 4 KB direct-mapped, 32-byte lines, 2-cycle latency.
	DefaultL1D = Config{SizeBytes: 4096, BlockSize: 32, Assoc: 1, Latency: 2}
	// DefaultL1I matches the L1 data cache organisation.
	DefaultL1I = Config{SizeBytes: 4096, BlockSize: 32, Assoc: 1, Latency: 2}
	// DefaultL2: 128 KB 4-way, 128-byte lines, 15-cycle latency.
	DefaultL2 = Config{SizeBytes: 128 * 1024, BlockSize: 128, Assoc: 4, Latency: 15}
	// DefaultMemoryLatency is the line-transfer latency of main memory.
	DefaultMemoryLatency = 80.0
)

// Hierarchy bundles the full simulated memory system.
//
//lint:checkpoint Snapshot, RestoreSnapshot
type Hierarchy struct {
	//lint:ephemeral rolled back separately through its own simmem.Checkpoint
	Space *simmem.Space
	//lint:ephemeral holds no restorable state of its own: its contents are the Space
	Mem *MainMemory
	L2  *L2
	L1D *L1Data
	L1I *L1Instr
}

// HierarchyConfig describes a full memory system; zero-valued fields fall
// back to the StrongARM defaults.
type HierarchyConfig struct {
	L1D        Config
	L1I        Config
	L2         Config
	MemLatency float64
}

func (hc HierarchyConfig) withDefaults() HierarchyConfig {
	if hc.L1D == (Config{}) {
		hc.L1D = DefaultL1D
	}
	if hc.L1I == (Config{}) {
		hc.L1I = DefaultL1I
	}
	if hc.L2 == (Config{}) {
		hc.L2 = DefaultL2
	}
	if hc.MemLatency == 0 {
		hc.MemLatency = DefaultMemoryLatency
	}
	return hc
}

// NewHierarchy assembles the default StrongARM-like hierarchy over space,
// with the given fault process, detection scheme and strike count on the
// L1 data cache.
func NewHierarchy(space *simmem.Space, inj fault.Process, det Detection, strikes int) (*Hierarchy, error) {
	return NewHierarchyWith(space, inj, det, strikes, HierarchyConfig{})
}

// NewHierarchyWith assembles a hierarchy with explicit cache geometries
// (used by the geometry ablation experiments).
func NewHierarchyWith(space *simmem.Space, inj fault.Process, det Detection, strikes int, hc HierarchyConfig) (*Hierarchy, error) {
	hc = hc.withDefaults()
	mem := NewMainMemory(space, hc.MemLatency)
	l2, err := NewL2(hc.L2, mem)
	if err != nil {
		return nil, err
	}
	l1d, err := NewL1Data(hc.L1D, l2, inj, det, strikes)
	if err != nil {
		return nil, err
	}
	l1i, err := NewL1Instr(hc.L1I, l2)
	if err != nil {
		return nil, err
	}
	// The L1D samples the memory's cycle accumulator around its backend
	// calls to split stall attribution into L2 and memory buckets.
	l1d.AttachMemory(mem)
	return &Hierarchy{Space: space, Mem: mem, L2: l2, L1D: l1d, L1I: l1i}, nil
}

// StallCycles returns the total memory stall cycles accumulated so far.
func (h *Hierarchy) StallCycles() float64 { return h.L1D.Cycles + h.L1I.Cycles }

// DMA writes data into the backing store at addr the way a NIC's DMA
// engine would, invalidating any stale cached copies of the range. (The
// range is normally uncached, but a wild read through a fault-corrupted
// pointer may have pulled arbitrary lines into the hierarchy.)
func (h *Hierarchy) DMA(addr simmem.Addr, data []byte) error {
	if err := h.Space.WriteBlock(addr, data); err != nil {
		return err
	}
	h.L1D.InvalidateRange(addr, len(data))
	h.L2.InvalidateRange(addr, len(data))
	return nil
}

// CoherentDMA is DMA with the write-back half of coherence: dirty cached
// lines overlapping the range are flushed to the backing store before the
// DMA data lands and the stale copies are invalidated. Plain DMA may
// discard unwritten stores that share a cache line with the target range;
// the state-repair ladder uses this variant so rewriting one flow record
// cannot silently revert its line neighbours to stale memory images. The
// L2 flushes before the L1D: the L1 holds the newest copy of any doubly
// dirty line, so its bytes must land last.
func (h *Hierarchy) CoherentDMA(addr simmem.Addr, data []byte) error {
	if err := h.L2.FlushRange(addr, len(data), h.Space.WriteBlock); err != nil {
		return err
	}
	if err := h.L1D.FlushRange(addr, len(data), h.Space.WriteBlock); err != nil {
		return err
	}
	return h.DMA(addr, data)
}

// Snapshot is a copy of the restorable state of every cache level — line
// payloads, tags, valid/dirty bits, L1D error patterns, strike state,
// and LRU order. Together with a simmem.Checkpoint of the backing space it
// captures the complete architectural memory state of the machine;
// statistics and energy accounting are excluded (a rollback rewinds
// contents, not measurements).
//
// A hierarchy keeps one restore point: only the snapshot it took last can
// be retaken or restored, and either copies only the frames changed since,
// the way a simmem.Checkpoint copies only dirty pages. Passing any other
// snapshot panics.
type Snapshot struct {
	l1d, l1i, l2 *frames
}

// Snapshot copies the current cache state into snap, the latest snapshot
// taken from h; pass nil to take a fresh full copy, which becomes the
// latest. Taking a snapshot has no architectural effect — no accesses,
// write-backs, stats, or energy.
//
//lint:hot-path
func (h *Hierarchy) Snapshot(snap *Snapshot) *Snapshot {
	snap, _ = h.snapshot(snap)
	return snap
}

// snapshot is Snapshot, also returning the number of frames it copied.
func (h *Hierarchy) snapshot(snap *Snapshot) (*Snapshot, int) {
	if snap == nil {
		snap = &Snapshot{} //lint:alloc-ok first use only; the steady state reuses these buffers and the zero-alloc pin verifies it
	}
	var n1, n2, n3 int
	snap.l1d, n1 = h.L1D.tab.snapshot(snap.l1d)
	snap.l1i, n2 = h.L1I.tab.snapshot(snap.l1i)
	snap.l2, n3 = h.L2.tab.snapshot(snap.l2)
	return snap, n1 + n2 + n3
}

// RestoreSnapshot copies the latest snapshot back into the hierarchy,
// which keeps it as its restore point. Afterwards every level holds
// exactly the lines it held at the snapshot moment, so a continuation
// reads the same values — including the same hit/miss and write-back
// behaviour — as an execution that never deviated after it.
//
//lint:hot-path
func (h *Hierarchy) RestoreSnapshot(snap *Snapshot) {
	h.L1D.tab.restore(snap.l1d)
	h.L1I.tab.restore(snap.l1i)
	h.L2.tab.restore(snap.l2)
	h.L1D.syncDisabled()
}
