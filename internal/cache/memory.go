package cache

import "clumsy/internal/simmem"

// MainMemory is the bottom of the hierarchy: a fixed-latency DRAM front-end
// over the simulated address space. It is never fault-injected.
type MainMemory struct {
	Space   *simmem.Space
	Latency float64 // stall cycles per line transfer
	Stats   Stats

	// Cycles accumulates the transfer latency of every line moved; the
	// L1D samples it around backend calls to split reported stalls into
	// L2 and memory attribution buckets.
	Cycles float64
}

// NewMainMemory wraps space with the given line-transfer latency.
func NewMainMemory(space *simmem.Space, latency float64) *MainMemory {
	return &MainMemory{Space: space, Latency: latency}
}

// chargeTransfer accounts one line transfer's latency — the only
// permitted write to the memory cycle accumulator (cycleacct invariant).
//
//lint:cycle-accounting
func (m *MainMemory) chargeTransfer() { m.Cycles += m.Latency }

// FetchLine reads a line from the backing space.
func (m *MainMemory) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Reads++
	if err := m.Space.ReadBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return m.Latency, nil
}

// StoreLine writes a line to the backing space.
func (m *MainMemory) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	m.Stats.Writes++
	if err := m.Space.WriteBlock(addr, buf); err != nil {
		return 0, err
	}
	m.chargeTransfer()
	return m.Latency, nil
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
	tab, err := newTable(cfg, true)
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
	c.tab.tick++
	victim.lru = c.tab.tick
	return i, cycles, nil
}

// FetchLine serves an upper-level fill request of len(buf) bytes.
func (c *L2) FetchLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Reads++
	cycles := c.tab.cfg.Latency
	for off := 0; off < len(buf); off += c.tab.cfg.BlockSize {
		i, extra, err := c.ensure(addr+simmem.Addr(off), false)
		if err != nil {
			return 0, err
		}
		cycles += extra
		lo := int(addr+simmem.Addr(off)) & (c.tab.cfg.BlockSize - 1)
		copy(buf[off:], c.tab.lineBytes(i)[lo:])
	}
	return cycles, nil
}

// StoreLine absorbs an upper-level write-back.
func (c *L2) StoreLine(addr simmem.Addr, buf []byte) (float64, error) {
	c.Stats.Writes++
	cycles := c.tab.cfg.Latency
	for off := 0; off < len(buf); off += c.tab.cfg.BlockSize {
		i, extra, err := c.ensure(addr+simmem.Addr(off), true)
		if err != nil {
			return 0, err
		}
		cycles += extra
		lo := int(addr+simmem.Addr(off)) & (c.tab.cfg.BlockSize - 1)
		copy(c.tab.lineBytes(i)[lo:], buf[off:min(off+c.tab.cfg.BlockSize-lo, len(buf))])
		c.tab.lines[i].dirty = true
	}
	return cycles, nil
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
