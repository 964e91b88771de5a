package cache

import "clumsy/internal/simmem"

// L1Instr is the level-1 instruction cache. It is conventional: the paper
// over-clocks only the data cache, so instruction fetches run at full swing
// with no fault injection. It serves fetch requests by program counter and
// reports miss stall cycles; the fetched bytes themselves are irrelevant to
// the simulation (applications are host code), so the cache tracks only
// tags.
//
//lint:checkpoint Snapshot, RestoreSnapshot
type L1Instr struct {
	tab table
	//lint:ephemeral topology wiring, immutable after construction
	next Backend
	//lint:ephemeral scratch buffer for the fetched line, which the cache does not keep
	fill []byte
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Stats Stats

	// Cycles accumulates fetch stall cycles (hits are fully pipelined).
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Cycles float64
}

// chargeStall accounts fetch stall cycles reported by the next level — the
// only permitted write to the L1I cycle accumulator (cycleacct invariant).
//
//lint:cycle-accounting
func (c *L1Instr) chargeStall(cyc float64) { c.Cycles += cyc }

// NewL1Instr builds the instruction cache over next.
func NewL1Instr(cfg Config, next Backend) (*L1Instr, error) {
	tab, err := newTable(cfg, false)
	if err != nil {
		return nil, err
	}
	return &L1Instr{tab: tab, next: next, fill: make([]byte, cfg.BlockSize)}, nil
}

// Fetch simulates the instruction fetch at pc. Hits cost nothing beyond the
// pipelined fetch stage; misses stall for the L2 (and possibly memory)
// latency.
func (c *L1Instr) Fetch(pc simmem.Addr) error {
	c.Stats.Reads++
	if i := c.tab.lookup(pc); i >= 0 {
		c.tab.hit(i)
		return nil
	}
	c.Stats.ReadMisses++
	i := c.tab.victim(pc)
	base := c.tab.lineBase(pc)
	cyc, err := c.next.FetchLine(base, c.fill)
	if err != nil {
		return err
	}
	c.chargeStall(cyc)
	_, tag := c.tab.index(pc)
	c.tab.lines[i].valid = true
	c.tab.lines[i].tag = tag
	c.tab.touch(i)
	return nil
}
