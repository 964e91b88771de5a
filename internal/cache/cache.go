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
// data, one parity byte and one ECC word per 32-bit word. A slab a level
// does not keep is nil: the L1I keeps tags only, only the L1D keeps
// strike state and check bits, and ECC words only under SEC-DED.
//
//lint:checkpoint snapshot, restore
type frames struct {
	lines   []line
	strikes []strikeState
	data    []byte
	par     []byte
	enc     []uint32
	tick    uint64 // LRU clock: every hit and fill stamps lru = ++tick
}

// clone returns a deep copy of f.
func (f *frames) clone() *frames {
	//lint:alloc-ok first use only; later checkpoints copy into these slabs and the zero-alloc pin verifies it
	return &frames{lines: slices.Clone(f.lines), strikes: slices.Clone(f.strikes), data: slices.Clone(f.data), par: slices.Clone(f.par), enc: slices.Clone(f.enc), tick: f.tick}
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
	w := blockSize / 4
	if src.par != nil {
		copy(dst.par[i*w:(i+1)*w], src.par[i*w:])
	}
	if src.enc != nil {
		copy(dst.enc[i*w:(i+1)*w], src.enc[i*w:])
	}
}

// table is the shared set-associative storage and lookup machinery used by
// every cache level.
//
// It also tracks what changed since its checkpoint, so a checkpoint costs
// the frames a packet touched rather than the whole table. Every hit and
// fill stamps the frame with lru = ++tick, so a frame whose lru is above
// the tick of the tracked snapshot was hit or filled since; whatever the
// same access then does to that frame (a store, an ECC scrub, a strike,
// the strike's invalidate and disable) rides on that stamp. The cold
// paths that change a frame without stamping it — DMA invalidate,
// coherent flush, ForceDisable, re-enable, and a fill that fails part-way
// — mark it instead.
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
	// restored. marked holds one bit per frame a cold path changed since
	// its moment.
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
// full block number, which keeps lookups unambiguous.
func (t *table) lookup(addr simmem.Addr) int {
	blk := uint32(addr) >> t.setShift
	first := int(blk&t.setMask) * t.cfg.Assoc
	for i := first; i < first+t.cfg.Assoc; i++ {
		if ln := &t.lines[i]; ln.valid && ln.tag == blk {
			t.tick++
			ln.lru = t.tick
			return i
		}
	}
	return -1
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
// addr, held in frame i; the word's parity and ECC word sit at offset/4 in
// theirs.
func (t *table) wordOffset(i int, addr simmem.Addr) int {
	return i<<(t.setShift&63) | int(addr)&(t.cfg.BlockSize-1)&^3
}

// mark records that a cold path changed frame i without stamping it.
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

// sync copies, from src to dst, every frame changed since the tracked
// snapshot's moment — table to snapshot on a commit, snapshot to table on
// a restore — together with the clock, clears the marks, and returns the
// number of frames copied. Marked frames go first and skip the stamped
// ones, so each changed frame is copied once in either direction.
func (t *table) sync(dst, src *frames) int {
	lines, since, bs, n := t.lines, t.tracked.tick, t.cfg.BlockSize, 0
	for wi, w := range t.marked {
		for ; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); lines[i].lru <= since {
				copyFrame(dst, src, i, bs)
				n++
			}
		}
		t.marked[wi] = 0
	}
	if t.tick != since { // some frame was hit or filled
		// One test per eight stamps, as nearly every group predates the
		// snapshot. Stamps never reach 2^63, so since-lru wraps past it,
		// setting the top bit, exactly when lru > since.
		first := 0
		for ; len(lines) >= 8; first, lines = first+8, lines[8:] {
			g := lines[:8]
			if ((since-g[0].lru)|(since-g[1].lru)|(since-g[2].lru)|(since-g[3].lru)|
				(since-g[4].lru)|(since-g[5].lru)|(since-g[6].lru)|(since-g[7].lru))>>63 != 0 {
				n += copyStamped(dst, src, g, first, since, bs)
			}
		}
		n += copyStamped(dst, src, lines, first, since, bs)
	}
	dst.tick = src.tick
	return n
}

// copyStamped copies from src to dst each frame of the group g, which
// starts at frame first, stamped after since, and returns their number.
func copyStamped(dst, src *frames, g []line, first int, since uint64, blockSize int) int {
	n := 0
	for j := range g {
		if g[j].lru > since {
			copyFrame(dst, src, first+j, blockSize)
			n++
		}
	}
	return n
}

// wordParity returns the even-parity bit of a 32-bit word.
func wordParity(v uint32) byte { return byte(bits.OnesCount32(v) & 1) }
