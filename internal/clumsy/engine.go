// Package clumsy assembles the clumsy packet processor: an in-order
// execution-cost engine, the fault-injected cache hierarchy, the dynamic
// frequency controller, and the golden/faulty run machinery that produces
// the paper's measurements.
package clumsy

import (
	"errors"

	"clumsy/internal/cache"
	"clumsy/internal/simmem"
)

// ErrWatchdog is returned when a packet exceeds its instruction budget —
// the signature of an execution stuck in a loop whose bound was corrupted.
// The paper calls these fatal errors (Section 2); the majority of the fatal
// errors it observed were infinite loops.
var ErrWatchdog = errors.New("clumsy: per-packet instruction budget exceeded")

// instrsPerFetch is how many sequential instructions one I-cache access
// covers (a 32-byte line of 4-byte instructions, fetched once).
const instrsPerFetch = 8

// engine models the execution core: single-issue, one cycle per
// instruction, with instruction fetch through the L1I and data access
// through the (possibly clumsy) L1D.
// Engine state deliberately survives a packet rollback: burned cycles and
// executed instructions are real even when the packet's memory effects are
// discarded. The per-packet boundary is beginPacket, which re-bases the
// watchdog; everything else carries a reason.
//
//lint:checkpoint beginPacket
type engine struct {
	//lint:ephemeral topology wiring, immutable after construction
	hier *cache.Hierarchy
	//lint:ephemeral layout constant fixed at construction
	codeBase simmem.Addr

	instrs uint64 // instructions executed, one core cycle each
	//lint:ephemeral cycles spent are real even when a packet is rolled back
	burned float64 // core cycles spun away by watchdog kills

	//lint:ephemeral fetch-locality state; the next packet re-fetches anyway
	curBlock int
	//lint:ephemeral fetch-locality state; the next packet re-fetches anyway
	sinceFetch int

	// Watchdog state.
	//lint:ephemeral configuration, immutable during a run
	budget      uint64 // per-packet instruction limit (0 = unlimited)
	packetStart uint64 // instrs at the start of the current packet
}

// appBlocks is the size of the synthetic code segment, comfortably above
// any application's basic-block count.
const appBlocks = 32

// newEngine builds an engine over the hierarchy and its code segment.
func newEngine(h *cache.Hierarchy) (*engine, error) {
	code, err := h.Space.Alloc(appBlocks*32, 128)
	if err != nil {
		return nil, err
	}
	return &engine{hier: h, codeBase: code, curBlock: -1}, nil
}

// charge accounts n executed instructions, which cost the single-issue
// core one cycle each (see coreCycles). Every instruction the simulator
// ever charges flows through here or through burnWatchdog; the cycleacct
// analyzer rejects counter writes anywhere else.
//
//lint:cycle-accounting
func (e *engine) charge(n int) { e.instrs += uint64(n) }

// burnWatchdog charges the core cycles a stuck packet spins away before the
// watchdog declares it dead: the remainder of the instruction budget beyond
// what the packet already executed (Section 4.1 — those cycles are real and
// count toward the run).
//
//lint:cycle-accounting
func (e *engine) burnWatchdog(budget uint64) {
	if spent := e.packetInstrs(); spent < budget {
		e.burned += float64(budget - spent)
	}
}

// coreCycles returns the core cycles so far: one per instruction plus the
// watchdog burn; stalls live in the caches. Both terms are integers below
// 2^53, so the sum is exact and equals, bit for bit, the float64 running
// total of every charge.
func (e *engine) coreCycles() float64 { return float64(e.instrs) + e.burned }

// Step implements apps.Exec. Entering a block fetches its line, and every
// 8 instructions run in it fetch the line again; one L1I call makes all
// of a step's fetches.
func (e *engine) Step(block, n int) error {
	if n < 0 {
		panic("clumsy: negative instruction count")
	}
	if block < 0 || block >= appBlocks {
		panic("clumsy: basic block outside the code segment")
	}
	e.charge(n)
	fetches := 0
	if block != e.curBlock {
		e.curBlock = block
		e.sinceFetch = 0
		fetches = 1
	}
	e.sinceFetch += n
	fetches += e.sinceFetch / instrsPerFetch
	e.sinceFetch %= instrsPerFetch
	if fetches > 0 {
		if err := e.hier.L1I.Fetch(e.codeBase+simmem.Addr(block*32), fetches); err != nil {
			return err
		}
	}
	return e.checkBudget()
}

func (e *engine) checkBudget() error {
	if e.budget != 0 && e.instrs-e.packetStart > e.budget {
		return ErrWatchdog
	}
	return nil
}

// beginPacket resets the watchdog window.
//
//lint:hot-path
func (e *engine) beginPacket() { e.packetStart = e.instrs }

// packetInstrs returns the instructions spent on the current packet so far.
func (e *engine) packetInstrs() uint64 { return e.instrs - e.packetStart }

// totalCycles returns core plus memory stall cycles.
func (e *engine) totalCycles() float64 { return e.coreCycles() + e.hier.StallCycles() }

// dataMemory wraps the L1D so that every load and store is also accounted
// as one instruction (and one core cycle) and checked against the watchdog.
type dataMemory struct {
	eng *engine
	l1d *cache.L1Data // eng's hierarchy's L1D
}

func (m dataMemory) note() error {
	m.eng.charge(1)
	return m.eng.checkBudget()
}

func (m dataMemory) Load8(a simmem.Addr) (uint8, error) {
	if err := m.note(); err != nil {
		return 0, err
	}
	return m.l1d.Load8(a)
}

func (m dataMemory) Store8(a simmem.Addr, v uint8) error {
	if err := m.note(); err != nil {
		return err
	}
	return m.l1d.Store8(a, v)
}

func (m dataMemory) Load32(a simmem.Addr) (uint32, error) {
	if err := m.note(); err != nil {
		return 0, err
	}
	return m.l1d.Load32(a)
}

func (m dataMemory) Store32(a simmem.Addr, v uint32) error {
	if err := m.note(); err != nil {
		return err
	}
	return m.l1d.Store32(a, v)
}

var _ simmem.Memory = dataMemory{}
