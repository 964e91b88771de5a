// Package cache implements the simulated memory hierarchy of the clumsy
// packet processor: a frequency-scaled, fault-injected L1 data cache with
// optional per-word parity and k-strike recovery, a conventional L1
// instruction cache, a shared unified L2, and a fixed-latency memory — the
// configuration of Section 5.1 (StrongARM-110-like: 4 KB direct-mapped L1s
// with 32-byte lines and 2-cycle latency, 128 KB 4-way L2 with 128-byte
// lines and 15-cycle latency).
//
// Only the L1 data cache is over-clocked: faults are injected on its read
// and write paths, its access latency shrinks proportionally to the relative
// cycle time Cr, and its per-access energy shrinks with the voltage swing.
// The L2 is assumed correct unless an incorrect value is written back to it
// from L1 (Section 4).
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"clumsy/internal/simmem"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	BlockSize int
	Assoc     int
	// Latency is the access latency in core cycles at full-swing operation.
	Latency float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Assoc <= 0:
		return errors.New("cache: non-positive geometry")
	case c.BlockSize%4 != 0:
		return errors.New("cache: block size must be a multiple of the 32-bit word")
	case c.BlockSize&(c.BlockSize-1) != 0:
		return errors.New("cache: block size must be a power of two")
	case c.SizeBytes%(c.BlockSize*c.Assoc) != 0:
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.SizeBytes)
	case c.Latency < 0:
		return errors.New("cache: negative latency")
	}
	sets := c.SizeBytes / (c.BlockSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return errors.New("cache: set count must be a power of two")
	}
	return nil
}

// Stats aggregates the events of one cache level.
type Stats struct {
	Reads         uint64
	Writes        uint64
	ReadMisses    uint64
	WriteMisses   uint64
	Writebacks    uint64
	Invalidations uint64
}

// MissRate returns the combined read+write miss rate.
func (s Stats) MissRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(total)
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Backend is the next level of the hierarchy as seen by a cache: it serves
// whole lines and reports the stall cycles of each operation.
type Backend interface {
	// FetchLine fills buf (whose length is the requesting cache's block
	// size) with the line containing addr and returns the stall cycles.
	FetchLine(addr simmem.Addr, buf []byte) (float64, error)
	// StoreLine writes a full line back and returns the stall cycles.
	StoreLine(addr simmem.Addr, buf []byte) (float64, error)
}

// line is the bookkeeping of one cache frame that lookups read; the rest
// of the frame lives at the same index of its table's other slabs. The
// dead/pinned bits belong to the line-disable recovery action of the L1
// data cache; other levels never set them. A dead line is always invalid
// (disable invalidates it), so the hit path needs no extra check. A
// checkpoint copies a frame's line whole, so a field added here is rolled
// back with the rest.
type line struct {
	valid  bool
	dirty  bool
	dead   bool // frame disabled: never allocated, accesses bypass to L2
	pinned bool // disabled by experiment control; survives re-enable
	tag    uint32
	lru    uint64
}

// strikeState is a frame's line-disable bookkeeping, kept by the L1 data
// cache only. It is rolled back with the contents, so a contained packet
// drop restores the exact strike map, keeping resumed campaigns
// byte-identical; a checkpoint copies it whole, like a line.
type strikeState struct {
	strikes     uint32 // uncorrected strikes inside the current window
	strikeTotal uint32 // cumulative uncorrected strikes (histogram)
	strikeMark  uint64 // access clock at the start of the current window
	epochMark   uint32 // last controller epoch this frame faulted in
}

// frames is the flat storage of a table, and of a snapshot of it. Frame
// i = set*Assoc + way keeps its bookkeeping in lines[i] and the rest at
// the same frame index of each slab: its strike state, BlockSize bytes of
// data, and one error pattern per 32-bit word. A slab a level does not
// keep is nil: the L1I keeps tags only, and only the L1D keeps strike
// state and error patterns.
//
// A word's error pattern holds the bits by which the stored word differs
// from the value last written or filled into it. Check bits are a
// function of that value, so the pattern is all they can tell a read:
// parity passes exactly when the read mask xor the pattern has even
// weight, and SEC-DED decodes the read word against the stored word xor
// the pattern.
//
//lint:checkpoint snapshot, restore
type frames struct {
	lines   []line
	strikes []strikeState
	data    []byte
	flip    []uint32
	tick    uint64 // LRU clock: fills and set-associative hits stamp lru = ++tick
}

// clone returns a deep copy of f.
func (f *frames) clone() *frames {
	//lint:alloc-ok first use only; later checkpoints copy into these slabs and the zero-alloc pin verifies it
	return &frames{lines: slices.Clone(f.lines), strikes: slices.Clone(f.strikes), data: slices.Clone(f.data), flip: slices.Clone(f.flip), tick: f.tick}
}

// copyFrame copies frame i, bookkeeping and payload, from src to dst.
func copyFrame(dst, src *frames, i, blockSize int) {
	dst.lines[i] = src.lines[i]
	if src.strikes != nil {
		dst.strikes[i] = src.strikes[i]
	}
	if src.data != nil {
		copy(dst.data[i*blockSize:(i+1)*blockSize], src.data[i*blockSize:])
	}
	if src.flip != nil {
		w := blockSize / 4
		copy(dst.flip[i*w:(i+1)*w], src.flip[i*w:])
	}
}

// table is the shared set-associative storage and lookup machinery used by
// every cache level.
//
// It also tracks what changed since its checkpoint, so a checkpoint costs
// the frames a packet changed rather than the whole table: every path
// that changes a frame marks it. A fill stamps and marks its frame
// (touch), and so does a hit in a set-associative table (hit); a
// direct-mapped table keeps no replacement order, so its hits change
// nothing. A store, an ECC scrub, a strike (with the refetch, invalidate
// and disable that follow it), a write-back absorbed by the L2, and the
// cold paths — DMA invalidate, coherent flush, ForceDisable, re-enable,
// and a fill that fails part-way — mark the frame they change.
//
//lint:checkpoint snapshot, restore
type table struct {
	frames
	cfg Config
	// setShift is log2(BlockSize): addr>>setShift is addr's block number,
	// and i<<setShift the offset of frame i's bytes in the data slab.
	//lint:ephemeral derived from the geometry at construction, never mutated
	setShift uint
	//lint:ephemeral derived from the geometry at construction, never mutated
	setMask uint32

	// tracked is the latest snapshot, the only one that can be retaken or
	// restored. marked holds one bit per frame changed since its moment.
	tracked *frames
	marked  []uint64
}

// newTable builds an empty table of cfg's geometry, with a data slab when
// the level keeps line payloads. Each level holds its table by value, so
// a lookup reaches the lines through one load fewer.
func newTable(cfg Config, payload bool) (table, error) {
	if err := cfg.Validate(); err != nil {
		return table{}, err
	}
	nsets := cfg.SizeBytes / (cfg.BlockSize * cfg.Assoc)
	t := table{cfg: cfg, setMask: uint32(nsets - 1)}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		t.setShift++
	}
	n := nsets * cfg.Assoc
	t.lines = make([]line, n)
	if payload {
		t.data = make([]byte, n*cfg.BlockSize)
	}
	t.marked = make([]uint64, (n+63)/64)
	return t, nil
}

func (t *table) index(addr simmem.Addr) (set uint32, tag uint32) {
	blk := uint32(addr) >> t.setShift
	return blk & t.setMask, blk >> 0 // full block number as tag keeps lookups unambiguous
}

// lookup returns the frame holding addr, or -1 on a miss. The tag is the
// full block number, which keeps lookups unambiguous. It changes nothing,
// so it stays small enough to inline; the caller records a hit with hit.
func (t *table) lookup(addr simmem.Addr) int {
	blk := uint32(addr) >> t.setShift
	first := int(blk&t.setMask) * t.cfg.Assoc
	for i := first; i < first+t.cfg.Assoc; i++ {
		if ln := &t.lines[i]; ln.valid && ln.tag == blk {
			return i
		}
	}
	return -1
}

// hit records a lookup hit on frame i. Only a set-associative table has
// a replacement order to update; a direct-mapped hit changes nothing.
func (t *table) hit(i int) {
	if t.cfg.Assoc > 1 {
		t.touch(i)
	}
}

// touch stamps frame i the most recently used and marks it changed.
func (t *table) touch(i int) {
	t.tick++
	t.lines[i].lru = t.tick
	t.mark(i)
}

// victim returns the frame to fill for addr (the invalid way if one
// exists, otherwise the least recently used way). Dead ways are never
// allocated; when every way of the set is dead, victim returns -1 and the
// access must bypass to the next level.
func (t *table) victim(addr simmem.Addr) int {
	first := int(uint32(addr)>>t.setShift&t.setMask) * t.cfg.Assoc
	best := -1
	for i := first; i < first+t.cfg.Assoc; i++ {
		if ln := &t.lines[i]; ln.dead {
			continue
		} else if !ln.valid {
			return i
		} else if best < 0 || ln.lru < t.lines[best].lru {
			best = i
		}
	}
	return best
}

// lineBytes returns the data of frame i.
func (t *table) lineBytes(i int) []byte {
	o := i << (t.setShift & 63) // the mask drops the compiler's oversized-shift check
	return t.data[o : o+t.cfg.BlockSize]
}

// wordOffset returns the offset in the data slab of the aligned word at
// addr, held in frame i; the word's error pattern sits at offset/4 in its
// slab.
func (t *table) wordOffset(i int, addr simmem.Addr) int {
	return i<<(t.setShift&63) | int(addr)&(t.cfg.BlockSize-1)&^3
}

// mark records that frame i changed since the tracked snapshot's moment.
func (t *table) mark(i int) { t.marked[i>>6] |= 1 << (uint(i) & 63) }

// lineBase returns the address of the first byte of the line holding addr.
func (t *table) lineBase(addr simmem.Addr) simmem.Addr {
	return addr &^ simmem.Addr(t.cfg.BlockSize-1)
}

// invalidateRange drops (without write-back) every line overlapping
// [addr, addr+n): the cached copies are stale after a DMA write landed in
// the backing store.
func (t *table) invalidateRange(addr simmem.Addr, n int) {
	first := t.lineBase(addr)
	last := t.lineBase(addr + simmem.Addr(n) - 1)
	for a := first; ; a += simmem.Addr(t.cfg.BlockSize) {
		set, tag := t.index(a)
		base := int(set) * t.cfg.Assoc
		for i := base; i < base+t.cfg.Assoc; i++ {
			if ln := &t.lines[i]; ln.valid && ln.tag == tag {
				ln.valid = false
				ln.dirty = false
				t.mark(i)
			}
		}
		if a >= last {
			break
		}
	}
}

// flushRange writes back, via sink, every valid dirty line overlapping
// [addr, addr+n) and marks it clean. It is the write-back half of a
// coherent DMA: invalidateRange alone discards unwritten stores that
// merely share a line with the DMA target, silently reverting neighbouring
// bytes to their stale backing-store image.
func (t *table) flushRange(addr simmem.Addr, n int, sink func(simmem.Addr, []byte) error) error {
	first := t.lineBase(addr)
	last := t.lineBase(addr + simmem.Addr(n) - 1)
	for a := first; ; a += simmem.Addr(t.cfg.BlockSize) {
		set, tag := t.index(a)
		base := int(set) * t.cfg.Assoc
		for i := base; i < base+t.cfg.Assoc; i++ {
			if ln := &t.lines[i]; ln.valid && ln.dirty && ln.tag == tag {
				if err := sink(a, t.lineBytes(i)); err != nil {
					return err
				}
				ln.dirty = false
				t.mark(i)
			}
		}
		if a >= last {
			break
		}
	}
	return nil
}

// snapshot copies the table into snap and returns it with the number of
// frames copied. A nil snap takes a fresh full copy, which becomes the
// tracked snapshot; otherwise snap must be the tracked snapshot, and only
// the frames changed since its moment are copied.
func (t *table) snapshot(snap *frames) (*frames, int) {
	if snap == nil {
		t.tracked = t.frames.clone()
		clear(t.marked)
		return t.tracked, len(t.lines)
	}
	t.mustTrack(snap)
	return snap, t.sync(snap, &t.frames)
}

// restore copies the tracked snapshot back into the table: only the
// frames changed since its moment. The table afterwards holds exactly the
// lines, payloads, and LRU state of the snapshot moment.
func (t *table) restore(snap *frames) {
	t.mustTrack(snap)
	t.sync(&t.frames, snap)
}

// mustTrack panics unless snap is the tracked snapshot: retaking or
// restoring any other is a programming error.
func (t *table) mustTrack(snap *frames) {
	if snap != t.tracked {
		panic("cache: snapshot is not the latest taken from this table")
	}
}

// sync copies, from src to dst, every frame marked since the tracked
// snapshot's moment — table to snapshot on a commit, snapshot to table on
// a restore — together with the clock, clears the marks, and returns the
// number of frames copied.
func (t *table) sync(dst, src *frames) int {
	bs, n := t.cfg.BlockSize, 0
	for wi, w := range t.marked {
		for ; w != 0; w &= w - 1 {
			copyFrame(dst, src, wi<<6+bits.TrailingZeros64(w), bs)
			n++
		}
		t.marked[wi] = 0
	}
	dst.tick = src.tick
	return n
}

// wordParity returns the even-parity bit of a 32-bit word.
func wordParity(v uint32) byte { return byte(bits.OnesCount32(v) & 1) }
