package clumsy

import (
	"errors"
	"fmt"
	"slices"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/freqctl"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// A Node is one clumsy processor kept alive between packets: the engine,
// cache hierarchy, fault process, and recovery ladder, with an
// open/process lifecycle so a fleet simulator can interleave packets from
// many independent processors under one virtual clock. It is also the
// only engine there is: a batch Run is a golden node (injection off) and
// a faulty node, each fed the whole trace in order, folded into a Result.
// A fleet node is the same machine as Run's faulty pass except for DMA
// placement (see nodeOpts.arena), so its per-packet costs differ slightly
// from the batch run's.

// ErrNodeDead is returned by Node.Process once a fatal error has ended the
// node's service life (abort policy, or drop rate beyond MaxDropRate).
var ErrNodeDead = errors.New("clumsy: node is dead")

// Calibration carries the golden-run figures a node needs before serving:
// the watchdog instruction budget and the fault-free per-packet delay (the
// natural service-capacity estimate of a healthy node). It is a pure
// function of the application and trace — fault seed, scale, and regime do
// not enter — so one calibration is shared by every node of a fleet.
type Calibration struct {
	Budget uint64  // per-packet instruction budget (WatchdogFactor x worst golden packet)
	Delay  float64 // golden data-plane cycles per packet
}

// Calibrate executes the golden (fault-free, full-swing) pass over the
// trace and derives the calibration for nodes serving that workload. Like
// Run, it checks the configuration before the golden pass.
func Calibrate(cfg Config, trace *packet.Trace) (Calibration, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return Calibration{}, err
	}
	g, err := newGolden(cfg, trace)
	if err != nil {
		return Calibration{}, err
	}
	return g.cal, nil
}

// NodeOutcome is the result of processing one packet on a node.
type NodeOutcome struct {
	Cycles  float64 // simulated cycles this packet cost (service time)
	Dropped bool    // the packet was killed by a fatal error
	Fatal   bool    // the fatal error also ended the node's service life
	Reason  string  // drop reason ("" when the packet completed)
}

// NodeHealth is the cumulative health evidence of a node: the recovery
// ladder's outputs, exported for a fleet-level health state machine. All
// counters are cumulative since OpenNode; consumers track windows by
// differencing snapshots.
type NodeHealth struct {
	Attempted     int // packets offered to the node
	Processed     int // packets completed
	Contained     int // fatal errors contained as drops
	WatchdogKills int // watchdog trips among the fatal errors

	LinesDisabled   int     // L1D frames currently dead
	DisabledFrac    float64 // L1D capacity fraction currently dead
	SpatialBackoffs int     // slow-downs forced by spatial evidence
	CycleTime       float64 // current relative cycle time of the L1D
	Dead            bool    // the node has left service
}

// Node is one live clumsy processor serving a packet stream.
type Node struct {
	cfg   Config
	app   apps.App
	burst *fault.Burst   // the fault process under the burst regime, else nil
	stuck *fault.StuckAt // the fault process under the permanent regime, else nil
	h     *cache.Hierarchy
	eng   *engine
	ctrl  *freqctl.Controller
	rec   *metrics.Recorder
	ctx   *apps.Context

	ckpt       *simmem.Checkpoint
	cacheState *cache.Snapshot
	guard      *stateGuard

	arena  bool        // DMA into a fresh arena buffer per packet
	buf    simmem.Addr // otherwise: the reused DMA buffer (line-aligned)
	bufCap int

	// Telemetry; all nil unless this is Run's faulty pass.
	tel                    *telemetry.Telemetry
	rt                     *telemetry.RunTrace
	histInstrs, histCycles *telemetry.Histogram

	// Two per-packet clocks. lapMark backs NodeOutcome.Cycles, which
	// includes the switch penalty, scrub passes and a dropped packet's
	// burned cycles; histMark backs the packet.cycles histogram, which
	// counts none of them.
	lapMark  float64
	histMark float64

	parityMark  uint64
	setupCycles float64 // engine cycles spent in Setup

	attempted       int
	processed       int
	drops           int // fatal errors, contained or not (setup death included)
	contained       int
	watchdogKills   int
	restoredPages   uint64
	maxPacketInstrs uint64
	timeline        []FreqEvent
	dead            bool
	setupDied       bool
	fatal           error
}

// nodeOpts is the caller's choice of the role a node plays. None of it is
// a Config field: it selects how the engine is driven, not what machine is
// simulated.
type nodeOpts struct {
	// inject arms the fault process, the recovery ladder, the frequency
	// controller, and — unless the policy is abort — the packet-boundary
	// checkpoint. The golden pass runs with it off.
	inject bool
	// arena gives every packet a fresh line-aligned buffer carved from the
	// address space, as the batch passes do. Otherwise one buffer sized for
	// the trace's largest packet is reused: a streaming node must not grow
	// its simulated memory per packet. The placements change cache
	// behaviour, and both are pinned (the paper tables, the fleet digests),
	// so neither may replace the other.
	arena bool
	// tel receives counters and trace events; only Run's faulty pass sets
	// it, so the golden reference and fleet nodes stay silent.
	tel *telemetry.Telemetry
	// budget is the per-packet watchdog instruction limit (0 = none).
	budget uint64
}

// OpenNode builds one faulty processor for the workload with the
// constructor Run's faulty pass uses — same fault streams, recovery
// ladder, controller, and (unless the policy is abort) packet-boundary
// checkpoint — except that packets are DMAed into one reused buffer and no
// telemetry is emitted. The control plane (Setup over the trace) runs
// here; a fatal error during Setup fails the open. cal must come from
// Calibrate over the same trace.
func OpenNode(cfg Config, trace *packet.Trace, cal Calibration) (*Node, error) {
	cfg = cfg.withDefaults()
	if trace == nil || len(trace.Packets) == 0 {
		return nil, errors.New("clumsy: empty trace")
	}
	cfg.Packets = len(trace.Packets)
	n, err := openNode(cfg, trace, nodeOpts{inject: true, budget: cal.Budget})
	if err != nil {
		return nil, err
	}
	if n.setupDied {
		return nil, fmt.Errorf("clumsy: node setup failed: %w", n.fatal)
	}
	return n, nil
}

// appBlocks is the size of the synthetic code segment, comfortably above
// any application's basic-block count.
const appBlocks = 32

// openNode is the one constructor of the engine. It builds, in order, the
// fault process, the hierarchy and its line-disable ladder, the engine and
// frequency controller, runs the app's Setup, and installs the state guard
// and the checkpoint. A fatal error during Setup returns a dead node with
// setupDied set: there is no pre-fault state to restore before the tables
// exist, so it always ends the pass.
func openNode(cfg Config, trace *packet.Trace, o nodeOpts) (*Node, error) {
	// Only the faulty passes check: the golden pass simulates none of the
	// checked fields, and one that GoldenCache shares must not fail
	// because of one sharer's configuration. Run, RunWithTrace,
	// GoldenCache.Run and Calibrate check before their golden pass; this
	// check serves OpenNode, whose configuration may differ from the one
	// calibrated.
	if o.inject {
		if err := cfg.check(); err != nil {
			return nil, err
		}
	}
	space := simmem.NewSpace(autoSpaceBytes(trace))
	n := &Node{cfg: cfg, arena: o.arena, tel: o.tel}

	// The fault process. Every regime forks the injector stream off the
	// seed with the same label, so the paper regime consumes the RNG
	// exactly as it always has — bit-for-bit reproduction of the existing
	// tables is part of the contract. The stuck-at map draws from its own
	// fork so seeding it never perturbs the transient stream.
	scale := 1.0
	if o.inject {
		scale = cfg.FaultScale
	}
	model := fault.NewModel(scale)
	seedRNG := fault.NewRNG(cfg.Seed)
	var proc fault.Process
	switch cfg.Regime {
	case RegimeBurst:
		n.burst = fault.NewBurst(model, seedRNG.Fork(0xfa17), 32, fault.DefaultBurstParams())
		proc = n.burst
	case RegimePermanent:
		inner := fault.NewInjector(model, seedRNG.Fork(0xfa17), 32)
		l1dBytes := cfg.L1DSize
		if l1dBytes == 0 {
			l1dBytes = cache.DefaultL1D.SizeBytes
		}
		n.stuck = fault.NewStuckAt(inner, seedRNG.Fork(0x57ac), l1dBytes/4, fault.DefaultStuckAtParams())
		proc = n.stuck
	case RegimePaper:
		fallthrough
	default: // unknown regimes fall back to the paper process
		proc = fault.NewInjector(model, seedRNG.Fork(0xfa17), 32)
	}
	// From here on injection is switched only through the L1D, which
	// hands the process the accesses served from its fault countdown
	// first; the countdown starts at zero, so this call needs no L1D.
	proc.SetEnabled(false)

	var hc cache.HierarchyConfig
	if cfg.L1DSize != 0 {
		hc.L1D = cache.DefaultL1D
		hc.L1D.SizeBytes = cfg.L1DSize
	}
	h, err := cache.NewHierarchyWith(space, proc, cfg.Detection, cfg.Strikes, hc)
	if err != nil {
		return nil, err
	}
	n.h = h
	h.L1D.SetSubBlock(cfg.SubBlock)
	if o.inject {
		// Arm the line-disable rung of the recovery ladder. It stays
		// dormant (the paper's semantics) unless running under the degrade
		// policy.
		if cfg.Recovery == RecoverDegrade {
			h.L1D.SetLineDisable(DefaultLineDisableStrikes, DefaultLineDisableWindow)
		}
		if cfg.PreDisableFrac > 0 {
			h.L1D.ForceDisable(cfg.PreDisableFrac)
		}
	}
	if n.eng, err = newEngine(h, appBlocks); err != nil {
		return nil, err
	}

	// rt is nil when tracing is off — every emit call vanishes behind one
	// branch.
	if o.tel != nil {
		n.rt = o.tel.StartRun(n.eng.totalCycles)
		h.L1D.SetTelemetry(n.rt)
		n.rt.RunStart(cfg.App, cfg.Packets, cfg.Seed, cfg.CycleTime, cfg.Dynamic,
			cfg.Detection.String(), cfg.Strikes, cfg.FaultScale)
		if b, t := n.burst, n.rt; b != nil {
			b.OnTransition = func(bad bool) {
				if bad {
					t.BurstEnter(b.Episodes)
				} else {
					t.BurstExit(b.Episodes)
				}
			}
		}
	}

	if o.inject {
		if cfg.Dynamic {
			x1, x2 := cfg.X1, cfg.X2
			if x1 == 0 {
				x1 = freqctl.DefaultX1
			}
			if x2 == 0 {
				x2 = freqctl.DefaultX2
			}
			n.ctrl, err = freqctl.New(freqctl.DefaultEpochPackets, x1, x2)
			if err != nil {
				return nil, err
			}
			if o.tel != nil {
				wireFreqTelemetry(n.ctrl, o.tel.Registry)
			}
			if cfg.Recovery == RecoverDegrade {
				// Top rung of the ladder: the controller sees spatial
				// evidence and backs off when faults spread across lines
				// or eat capacity faster than line disable can contain.
				n.ctrl.SpatialEvidence = h.L1D.TakeEpochEvidence
			}
			h.L1D.SetCycleTime(n.ctrl.CycleTime())
		} else {
			h.L1D.SetCycleTime(cfg.CycleTime)
		}
	}

	if n.app, err = apps.New(cfg.App); err != nil {
		return nil, err
	}
	n.rec = metrics.NewRecorder()
	n.ctx = &apps.Context{Space: space, Mem: dataMemory{n.eng, h.L1D}, Rec: n.rec, Exec: n.eng}

	// Control plane. A fatal error here always ends the pass, whatever the
	// recovery policy: the checkpoint that drop-and-continue restores from
	// is only taken once Setup has produced a state worth preserving (a
	// real router would rebuild its tables, not roll them back).
	if o.inject && cfg.Planes&PlaneControl != 0 {
		h.L1D.SetInjection(true)
	}
	if err := runSetup(n.app, n.ctx, trace); err != nil {
		if !isFatal(err) {
			return nil, err
		}
		n.setupDied = true
		n.drop(-1, err)
		n.die(err)
		return n, nil
	}
	h.L1D.SetInjection(false)
	n.rec.BeginPackets()
	n.setupCycles = n.eng.totalCycles()

	// State-integrity machinery: if Setup registered a flow-state table,
	// install the corruption ladder around it. The guard exists in both
	// the golden and the faulty pass — verified lookups and scrub walks
	// must charge the same instruction stream in both, or the golden
	// reference would stop being a reference — but the ladder only ever
	// fires where faults exist.
	if sa, ok := n.app.(apps.StatefulApp); ok && sa.StateTable() != nil {
		n.guard = newStateGuard(sa.StateTable(), h, n.rt, n.eng, cfg)
	}

	if !o.arena {
		for i := range trace.Packets {
			n.bufCap = max(n.bufCap, dmaSize(&trace.Packets[i]))
		}
		if n.buf, err = space.Alloc(n.bufCap, 32); err != nil {
			return nil, err
		}
	}

	// Checkpoint the post-setup state before the injector is re-enabled.
	// The restore point is the complete architectural memory state — the
	// backing space (dirty-page granular) plus a deep copy of every cache
	// level — so a rolled-back execution continues bit-exactly as if the
	// failed packet had never run: same values, same hits and misses, same
	// write-back order. Neither the checkpoint nor the per-packet commits
	// touch the simulated machine, which keeps drop-policy runs without
	// fatal errors identical to abort-policy runs.
	if o.inject && cfg.Recovery != RecoverAbort {
		n.ckpt = space.NewCheckpoint()
		n.cacheState = h.Snapshot(nil)
	}

	// Data plane.
	if o.inject && cfg.Planes&PlaneData != 0 {
		h.L1D.SetInjection(true)
	}
	n.eng.budget = o.budget
	n.lapMark = n.totalCycles()
	if o.tel != nil {
		n.histInstrs = o.tel.Registry.Histogram(telemetry.HistPacketInstructions)
		n.histCycles = o.tel.Registry.Histogram(telemetry.HistPacketCycles)
		n.histMark = n.eng.totalCycles()
	}
	return n, nil
}

// totalCycles is the node's simulated clock: engine cycles (core + stalls)
// plus any frequency-switch penalty.
func (n *Node) totalCycles() float64 {
	c := n.eng.totalCycles()
	if n.ctrl != nil {
		c += n.ctrl.PenaltyCycles
	}
	return c
}

// delay is the data-plane cycles per completed packet; a pass that
// completed nothing charges its whole cost.
func (n *Node) delay() float64 {
	if n.processed == 0 {
		return n.totalCycles()
	}
	return (n.totalCycles() - n.setupCycles) / float64(n.processed)
}

// serve streams the trace through the node in order until it ends or the
// node dies. Only the batch passes serve a whole trace, so only they size
// the recorder for it up front; a streaming node grows its record as
// packets come.
func (n *Node) serve(trace *packet.Trace) error {
	n.rec.Packets = slices.Grow(n.rec.Packets, len(trace.Packets))
	for i := range trace.Packets {
		if n.dead {
			break
		}
		if _, err := n.Process(&trace.Packets[i]); err != nil {
			return err
		}
	}
	return nil
}

// drop counts a fatal error on packet i (-1: during Setup), emits its
// packet_drop record, and returns its drop reason.
func (n *Node) drop(i int, err error) string {
	n.drops++
	if errors.Is(err, ErrWatchdog) {
		n.watchdogKills++
	}
	reason := dropReason(err)
	n.rt.PacketDrop(i, reason)
	return reason
}

// die ends the node's service life.
func (n *Node) die(err error) {
	n.dead = true
	n.fatal = err
}

// Process serves one packet and returns its outcome: the simulated cycles
// it cost (the fleet's service time), and whether it was dropped or killed
// the node. Calling Process on a dead node returns ErrNodeDead; any other
// error is a simulator failure, not a simulated outcome.
func (n *Node) Process(p *packet.Packet) (NodeOutcome, error) {
	if n.dead {
		return NodeOutcome{}, ErrNodeDead
	}
	processed, contained := n.processed, n.contained
	out, err := n.step(p)
	// The recorder is measurement harness, not simulated machine: only the
	// app observes into it, so the packet boundary is marked once the step
	// is over.
	if n.processed > processed {
		n.rec.EndPacket()
	} else if n.contained > contained {
		n.rec.DropPacket()
	}
	return out, err
}

// step is the machine's per-packet step: DMA, execution, watchdog burn,
// contain-or-die, scrub, the boundary commit, and the controller update.
func (n *Node) step(p *packet.Packet) (NodeOutcome, error) {
	i := n.attempted
	n.attempted++
	buf, err := n.dma(p)
	if err != nil {
		return NodeOutcome{}, err
	}
	n.eng.beginPacket()
	if n.guard != nil {
		n.guard.packet = i
	}
	if err := processPacket(n.app, n.ctx, p, buf); err != nil {
		if errors.Is(err, ErrStateCorrupt) {
			// The recovery ladder is exhausted: flow state has diverged
			// beyond what eviction and shadow rebuild can repair. This
			// outcome is terminal under every policy — containment can
			// drop a packet, but it cannot un-lose the table.
			reason := n.drop(i, err)
			n.die(err)
			return NodeOutcome{Dropped: true, Fatal: true, Reason: reason, Cycles: n.lap()}, nil
		}
		if !isFatal(err) {
			return NodeOutcome{}, err
		}
		// The execution is stuck or trapped; the processor spins for the
		// remainder of the watchdog budget before the packet is declared
		// dead, and those cycles are real (Section 4.1: the reported
		// figures are based on the packets processed until the fatal
		// error, over the cycles actually burned).
		if n.eng.budget > 0 {
			n.eng.burnWatchdog(n.eng.budget)
		}
		out := NodeOutcome{Dropped: true, Reason: n.drop(i, err)}
		if n.ckpt == nil {
			n.die(err)
			out.Fatal = true
			out.Cycles = n.lap()
			return out, nil
		}
		// Contain the fault: drop the packet and roll the whole memory
		// state — backing space and cache contents — back to the last
		// packet boundary. Execution resumes with the next packet on
		// exactly the machine state the failed packet started from; only
		// its burned cycles remain.
		pages := n.ckpt.Restore()
		n.h.RestoreSnapshot(n.cacheState)
		if n.guard != nil {
			n.guard.st.RestoreShadow()
		}
		n.contained++
		n.restoredPages += uint64(pages)
		n.rt.StateRestore(i, pages, out.Reason)
		if sr, ok := n.app.(apps.ScratchResetter); ok {
			sr.ResetScratch()
		}
		if n.histInstrs != nil {
			n.histMark = n.eng.totalCycles()
		}
		if n.cfg.MaxDropRate > 0 {
			if rate := float64(n.contained) / float64(n.attempted); rate > n.cfg.MaxDropRate {
				n.die(fmt.Errorf("%w: %.4f > %.4f after packet %d",
					ErrDropRateExceeded, rate, n.cfg.MaxDropRate, i))
				out.Fatal = true
			}
		}
		out.Cycles = n.lap()
		return out, nil
	}
	n.processed++
	n.maxPacketInstrs = max(n.maxPacketInstrs, n.eng.packetInstrs())
	if n.histInstrs != nil {
		n.histInstrs.Observe(n.eng.packetInstrs())
		now := n.eng.totalCycles()
		n.histCycles.Observe(uint64(now - n.histMark))
		n.histMark = now
	}
	if n.guard != nil && n.guard.scrubDue(n.processed) {
		// Periodic integrity scrub, before the boundary commit so any
		// repairs fold into the next restore point. A scrub that exhausts
		// the ladder ends the node's life like an in-packet exhaustion.
		if err := n.guard.scrubPass(n.ctx.Mem, i); err != nil {
			if !errors.Is(err, ErrStateCorrupt) && !isFatal(err) {
				return NodeOutcome{}, err
			}
			n.die(err)
			return NodeOutcome{Dropped: true, Fatal: true, Reason: dropReason(err), Cycles: n.lap()}, nil
		}
		if n.histInstrs != nil {
			n.histMark = n.eng.totalCycles() // scrub cycles are not packet cycles
		}
	}
	if n.ckpt != nil {
		// Advance the restore point to this packet boundary.
		n.ckpt.Commit()
		n.cacheState = n.h.Snapshot(n.cacheState)
	}
	if n.guard != nil {
		n.guard.st.CommitShadow()
	}
	if n.ctrl != nil {
		newErrors := n.h.L1D.Recovery.ParityErrors - n.parityMark
		n.parityMark = n.h.L1D.Recovery.ParityErrors
		if dec := n.ctrl.PacketDone(newErrors); dec != freqctl.Keep {
			n.h.L1D.SetCycleTime(n.ctrl.CycleTime())
			n.timeline = append(n.timeline, FreqEvent{Packet: i + 1, CycleTime: n.ctrl.CycleTime()})
			n.rt.FreqTransition(i+1, dec.String(), n.ctrl.CycleTime())
		}
	}
	return NodeOutcome{Cycles: n.lap()}, nil
}

// lap returns the cycles since the last packet boundary and advances it.
func (n *Node) lap() float64 {
	now := n.totalCycles()
	d := now - n.lapMark
	n.lapMark = now
	return d
}

// dmaSize is the line-aligned buffer footprint of a packet's wire image;
// even a zero-byte arrival keeps the 32-byte minimum so layouts stay
// stable.
func dmaSize(p *packet.Packet) int {
	return max((p.WireLen()+31)&^31, 32)
}

// dma places the packet into simulated memory per the node's placement: a
// fresh arena buffer, or the node's reused buffer.
//
//lint:hot-path
func (n *Node) dma(p *packet.Packet) (simmem.Addr, error) {
	if n.arena {
		return dmaPacket(n.h, p)
	}
	if size := p.WireLen(); size > n.bufCap {
		return 0, fmt.Errorf("clumsy: packet (%d bytes) exceeds the node's DMA buffer (%d)", size, n.bufCap) //lint:alloc-ok simulator error on a misconfigured node, never in steady state
	}
	return n.buf, dmaInto(n.h, n.buf, p)
}

// dmaPacket places one packet into fresh, line-aligned arena memory.
//
//lint:hot-path
func dmaPacket(h *cache.Hierarchy, p *packet.Packet) (simmem.Addr, error) {
	buf, err := h.Space.Alloc(dmaSize(p), 32) //lint:alloc-ok Alloc allocates only on its out-of-arena error path
	if err != nil {
		return 0, err
	}
	return buf, dmaInto(h, buf, p)
}

// dmaInto writes the packet's wire image at buf as a NIC's DMA engine
// would: directly into the backing store, invalidating any stale cached
// copies of the range (a wild read through a corrupted pointer may have
// cached lines of the buffer region before the packet arrived).
//
//lint:hot-path
func dmaInto(h *cache.Hierarchy, buf simmem.Addr, p *packet.Packet) error {
	if p.Raw != nil {
		// Malformed wire image: DMA exactly the bytes the NIC received,
		// however few.
		if len(p.Raw) == 0 {
			return nil
		}
		return h.DMA(buf, p.Raw) //lint:alloc-ok DMA allocates only its fault-diagnostic AccessError
	}
	hdr := p.Header()
	if err := h.DMA(buf, hdr[:]); err != nil { //lint:alloc-ok DMA allocates only its fault-diagnostic AccessError
		return err
	}
	if len(p.Payload) > 0 {
		return h.DMA(buf+packet.HeaderLen, p.Payload) //lint:alloc-ok DMA allocates only its fault-diagnostic AccessError
	}
	return nil
}

// Health returns the node's cumulative health evidence.
func (n *Node) Health() NodeHealth {
	ev := n.h.L1D.Health()
	nh := NodeHealth{
		Attempted:     n.attempted,
		Processed:     n.processed,
		Contained:     n.contained,
		WatchdogKills: n.watchdogKills,
		LinesDisabled: ev.DisabledLines,
		DisabledFrac:  ev.DisabledFraction,
		CycleTime:     ev.CycleTime,
		Dead:          n.dead,
	}
	if n.ctrl != nil {
		nh.SpatialBackoffs = n.ctrl.SpatialBackoffs
	}
	return nh
}

// FatalErr returns the error that ended a dead node's service life, or nil.
func (n *Node) FatalErr() error { return n.fatal }

// Reclock raises the node's relative cycle time to cr (clamped to [current
// cycle time, 1]) — the restorative half of drain-and-re-clock: slower
// cycles give marginal cells the full sense window back, and the cache
// returns every non-pinned disabled frame to service with a clean strike
// window. Returns the applied cycle time. Static-clock nodes only; a
// dynamic node's controller owns its operating point, so Reclock is a
// no-op there.
func (n *Node) Reclock(cr float64) float64 {
	cur := n.h.L1D.CycleTime()
	if n.ctrl != nil {
		return cur
	}
	if cr < cur {
		cr = cur
	}
	if cr > 1 {
		cr = 1
	}
	if cr > cur {
		n.h.L1D.SetCycleTime(cr)
	}
	return cr
}

// Close releases the node's checkpoint resources. The node must not be
// used afterwards.
func (n *Node) Close() {
	if n.ckpt != nil {
		n.ckpt.Release()
		n.ckpt = nil
	}
	n.dead = true
}
