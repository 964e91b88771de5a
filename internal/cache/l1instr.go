package cache

import "clumsy/internal/simmem"

// L1Instr is the level-1 instruction cache. It is conventional: the paper
// over-clocks only the data cache, so instruction fetches run at full swing
// with no fault injection. It serves fetch requests by program counter and
// reports miss stall cycles; the fetched bytes themselves are irrelevant to
// the simulation (applications are host code).
//
// The only code is the engine's segment of 32 lines of 32 bytes, which
// fall into 32 distinct sets of the 4 KB direct-mapped array, and nothing
// else is ever fetched into it. No line evicts another, so the cache's
// state is the set of code lines fetched since the last restore: bit
// pc/32 mod 32 of resident.
//
//lint:checkpoint Snapshot, RestoreSnapshot
type L1Instr struct {
	resident uint32
	//lint:ephemeral topology wiring, immutable after construction
	next Backend
	//lint:ephemeral scratch buffer for the fetched line, which the cache does not keep
	fill [32]byte
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

// Fetch simulates n sequential instruction fetches from the code line
// holding pc. The first misses unless the line is resident and stalls for
// the L2 (and possibly memory) latency; the rest hit, and hits cost
// nothing beyond the pipelined fetch stage.
func (c *L1Instr) Fetch(pc simmem.Addr, n int) error {
	c.Stats.Reads += uint64(n)
	bit := uint32(1) << (pc >> 5 & 31)
	if c.resident&bit != 0 {
		return nil
	}
	c.Stats.ReadMisses++
	cyc, err := c.next.FetchLine(pc&^31, c.fill[:])
	if err != nil {
		return err
	}
	c.chargeStall(cyc)
	c.resident |= bit
	return nil
}
