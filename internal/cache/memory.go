package cache

import "clumsy/internal/simmem"

// MainMemory is the bottom of the hierarchy: a fixed-latency DRAM front-end
// over the simulated address space. It is never fault-injected.
type MainMemory struct {
	Space *simmem.Space
	Stats Stats

	// Cycles accumulates the transfer latency of every line moved; the
	// L1D samples it around backend calls to split reported stalls into
	// L2 and memory attribution buckets.
	Cycles float64
}

// NewMainMemory wraps space; every line transfer takes
// DefaultMemoryLatency cycles.
func NewMainMemory(space *simmem.Space) *MainMemory { return &MainMemory{Space: space} }

// chargeTransfer accounts one line transfer's latency — the only
// permitted write to the memory cycle accumulator (cycleacct invariant).
//
//lint:cycle-accounting
func (m *MainMemory) chargeTransfer() { m.Cycles += DefaultMemoryLatency }

// FetchLine reads a line from the backing space.
func (m *MainMemory) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Reads++
	if err := m.Space.ReadBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return DefaultMemoryLatency, nil
}

// StoreLine writes a line to the backing space.
func (m *MainMemory) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Writes++
	if err := m.Space.WriteBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return DefaultMemoryLatency, nil
}

var _ Backend = (*MainMemory)(nil)

// L2 is the shared, unified second-level cache. It always runs at full
// swing: its contents are correct unless a corrupted line is written back
// from L1 (Section 4). Write-back, write-allocate.
//
//lint:checkpoint Snapshot, RestoreSnapshot
type L2 struct {
	tab table
	//lint:ephemeral topology wiring, immutable after construction
	next Backend
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Stats Stats
}

// NewL2 builds the unified L2 over the given backend.
func NewL2(cfg Config, next Backend) (*L2, error) {
	tab, err := newTable(cfg)
	if err != nil {
		return nil, err
	}
	return &L2{tab: tab, next: next}, nil
}

// ensure returns the frame holding addr, filling it on a miss, together
// with the stall cycles spent below this level. Main memory reads a line
// whole or not at all, so a failed fill leaves the victim untouched.
func (c *L2) ensure(addr simmem.Addr, isWrite bool) (int, float64, error) {
	if i := c.tab.lookup(addr); i >= 0 {
		c.tab.hit(i)
		return i, 0, nil
	}
	if isWrite {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	i := c.tab.victim(addr)
	victim, data := &c.tab.lines[i], c.tab.lineBytes(i)
	var cycles float64
	if victim.valid && victim.dirty {
		c.Stats.Writebacks++
		base := simmem.Addr(victim.tag) << c.tab.setShift
		wb, err := c.next.StoreLine(base, data)
		if err != nil {
			return -1, 0, err
		}
		cycles += wb
	}
	base := c.tab.lineBase(addr)
	fill, err := c.next.FetchLine(base, data)
	if err != nil {
		return -1, 0, err
	}
	cycles += fill
	_, tag := c.tab.index(addr)
	victim.valid = true
	victim.dirty = false
	victim.tag = tag
	c.tab.touch(i)
	return i, cycles, nil
}

// FetchLine serves an upper-level fill request of len(buf) bytes, which
// lie inside one L2 line.
func (c *L2) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Reads++
	i, cycles, err := c.ensure(addr, false)
	if err != nil {
		return 0, err
	}
	copy(buf, c.tab.lineBytes(i)[int(addr)&(c.tab.cfg.BlockSize-1):])
	return c.tab.cfg.Latency + cycles, nil
}

// StoreLine absorbs an upper-level write-back of len(buf) bytes, which lie
// inside one L2 line.
func (c *L2) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Writes++
	i, cycles, err := c.ensure(addr, true)
	if err != nil {
		return 0, err
	}
	copy(c.tab.lineBytes(i)[int(addr)&(c.tab.cfg.BlockSize-1):], buf)
	c.tab.lines[i].dirty = true
	c.tab.mark(i)
	return c.tab.cfg.Latency + cycles, nil
}

// InvalidateRange drops any lines overlapping the given byte range without
// write-back (DMA coherence).
func (c *L2) InvalidateRange(addr simmem.Addr, n int) { c.tab.invalidateRange(addr, n) }

// FlushRange writes back every dirty line overlapping the given byte range
// through sink and marks it clean — the write-back half of a coherent DMA.
func (c *L2) FlushRange(addr simmem.Addr, n int, sink func(simmem.Addr, []byte) error) error {
	return c.tab.flushRange(addr, n, sink)
}

var _ Backend = (*L2)(nil)
