package cache

import (
	"math/bits"

	"clumsy/internal/circuit"
	"clumsy/internal/fault"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// Detection selects the fault-detection scheme of the L1 data cache
// (Section 4: a parity-protected architecture and one without detection).
//
//lint:exhaustive
type Detection int

const (
	// DetectionNone lets faults corrupt values silently.
	DetectionNone Detection = iota
	// DetectionParity protects each 32-bit word with one parity bit;
	// faults flipping an odd number of bits are detected on read.
	DetectionParity
	// DetectionECC protects each word with a SEC-DED Hamming code:
	// single-bit faults are corrected transparently, double-bit faults
	// are detected and recovered like parity hits. The paper excludes ECC
	// on complexity and energy grounds (Section 4); it is implemented
	// here as an extension so the trade-off can be measured.
	DetectionECC
)

func (d Detection) String() string {
	switch d {
	case DetectionNone:
		return "no detection"
	case DetectionParity:
		return "parity"
	case DetectionECC:
		return "ecc"
	default:
		return "no detection"
	}
}

// RecoveryStats counts the detection and recovery events of the L1D.
type RecoveryStats struct {
	ParityErrors  uint64 // detected (uncorrectable) mismatches, parity or ECC
	Retries       uint64 // L1 re-reads before giving up (two-/three-strike)
	Recoveries    uint64 // refetch-from-L2 sequences (full-line or sub-block)
	Corrected     uint64 // single-bit faults repaired in place by ECC
	Miscorrected  uint64 // >=3-bit faults silently miscorrected by ECC
	FaultsOnRead  uint64 // fault events injected on the read path
	FaultsOnWrite uint64 // fault events injected on the write path
	LineDisables  uint64 // frames disabled after exhausting the strike budget
	LineReEnables uint64 // frames re-enabled after a frequency drop
	Bypasses      uint64 // accesses served directly from L2 (all ways dead)
}

// EnergyWeights accumulate, per access class, the sum of the relative
// voltage swing at the time of each access. Multiplying a weight by the
// full-swing per-access energy yields the total energy of that class: the
// paper's model has cache energy shrinking linearly with the swing
// (Section 5.4).
type EnergyWeights struct {
	ReadSwing  float64 // sum of Vsr over read accesses (incl. retries)
	WriteSwing float64 // sum of Vsr over write accesses (incl. fills)
}

// L1Data is the clumsy level-1 data cache: write-back, write-allocate,
// frequency-scaled, fault-injected, optionally parity-protected with
// k-strike recovery. It implements simmem.Memory, so applications run on it
// unchanged. The rollback surface is the line table (checkpointed by the
// hierarchy snapshot) plus the disabled-frame count (recounted by
// syncDisabled — the PR 5 restore bug this annotation now pins); every
// other field documents why it survives a rollback.
//
//lint:checkpoint Snapshot, RestoreSnapshot, syncDisabled
type L1Data struct {
	tab table
	//lint:ephemeral topology wiring, immutable after construction
	next Backend

	//lint:ephemeral fault-process time advances monotonically; a drop never rewinds the fault environment
	injector fault.Process
	// quiet counts down the accesses the injector last promised
	// fault-free (its Quiet), which the cache serves without calling it;
	// quietFrom is that promise. The quietFrom-quiet accesses served are
	// handed back through Skip before any other call into the injector.
	//lint:ephemeral fault-process time advances monotonically; a drop never rewinds the fault environment
	quiet int64
	//lint:ephemeral fault-process time advances monotonically; a drop never rewinds the fault environment
	quietFrom int64
	//lint:ephemeral configuration, immutable during a run
	detection Detection
	//lint:ephemeral configuration, immutable during a run
	strikes int // 1, 2, or 3; L1 attempts before recovering via L2
	//lint:ephemeral configuration, immutable during a run
	subBlock bool // recover single words from L2 instead of whole lines

	// Line-disable recovery (dormant unless armed via SetLineDisable):
	// after disableStrikes uncorrected strikes on one frame within
	// disableWindow accesses, the frame is marked dead and its set
	// degrades to fewer ways. A frequency drop re-enables dead frames —
	// the marginal cells that killed them get slower cycles to settle.
	//lint:ephemeral configuration, immutable during a run
	disableStrikes int // 0 = line disable off (paper semantics)
	//lint:ephemeral configuration, immutable during a run
	disableWindow uint64 // strike window, in L1D accesses
	deadLines     int    // currently disabled frames
	//lint:ephemeral controller health evidence; a rollback rewinds contents, not evidence
	epochSeq uint32 // controller epoch counter for spatial evidence
	//lint:ephemeral controller health evidence; a rollback rewinds contents, not evidence
	epochDistinct int // distinct frames that faulted this epoch

	//lint:ephemeral physical operating point; re-clocking is a ladder decision, not memory contents
	cr float64 // relative cycle time of this cache
	//lint:ephemeral physical operating point; re-clocking is a ladder decision, not memory contents
	vsr float64 // relative voltage swing at cr
	//lint:ephemeral physical operating point; re-clocking is a ladder decision, not memory contents
	lat float64 // current access latency in core cycles (Latency * cr)
	//lint:ephemeral scratch buffer, dead outside a single access
	word [4]byte // scratch word buffer; local arrays escape through the next-level interface

	// rt, when non-nil, receives structured trace events for injected
	// faults and recovery steps. It is nil by default, so the hit path is
	// untouched and the (already rare) fault path pays one branch.
	//lint:ephemeral telemetry sink, not machine state
	rt *telemetry.RunTrace

	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Stats Stats
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Recovery RecoveryStats
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Energy EnergyWeights

	// Cycles accumulates the data-access stall cycles of the run; the
	// execution engine folds it into the per-packet cycle counts.
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Cycles float64

	// Breakdown shadows Cycles with per-component attribution: every
	// charge helper that advances Cycles adds the same amount to exactly
	// one bucket (L1D array, L2, Mem, or Recovery), so the data-side
	// buckets always sum to Cycles. The Compute/L1I/FreqPenalty buckets
	// are folded in by the run machinery at the end of a run.
	//lint:ephemeral measurement; a rollback rewinds contents, not measurements
	Breakdown CycleBreakdown

	// mem, when non-nil, points at the main memory at the bottom of this
	// cache's backend chain; its cycle accumulator is sampled around
	// backend calls to split reported stalls into L2 and memory buckets.
	// Nil (an L1D built over an arbitrary backend) attributes all
	// non-recovery backend stalls to the L2 bucket.
	//lint:ephemeral topology wiring, immutable after construction
	mem *MainMemory
}

// AttachMemory registers the main memory below this cache's backend chain
// for the L2/memory stall split. The hierarchy constructor calls it; an
// L1D without one accounts backend stalls wholly to the L2 bucket.
func (c *L1Data) AttachMemory(m *MainMemory) { c.mem = m }

// memCycles samples the attached main memory's cycle accumulator (zero
// without one); deltas around a backend call isolate the memory share of
// its reported stall.
func (c *L1Data) memCycles() float64 {
	if c.mem == nil {
		return 0
	}
	return c.mem.Cycles
}

// NewL1Data builds the clumsy L1 data cache over next. strikes selects the
// recovery scheme (1, 2, or 3); it is ignored under DetectionNone.
func NewL1Data(cfg Config, next Backend, inj fault.Process, det Detection, strikes int) (*L1Data, error) {
	tab, err := newTable(cfg, true)
	if err != nil {
		return nil, err
	}
	if strikes < 1 || strikes > 3 {
		strikes = 1
	}
	tab.strikes = make([]strikeState, len(tab.lines))
	tab.flip = make([]uint32, len(tab.data)/4)
	c := &L1Data{tab: tab, next: next, injector: inj, detection: det, strikes: strikes, epochSeq: 1}
	c.SetCycleTime(1)
	return c, nil
}

// SetTelemetry installs (or, with nil, removes) the structured event
// trace of the current run. Fault injections and recovery steps are
// emitted to it; counters are not touched here — the run machinery flushes
// Stats and Recovery into the telemetry registry when the run finishes.
func (c *L1Data) SetTelemetry(rt *telemetry.RunTrace) { c.rt = rt }

// SetSubBlock selects sub-block recovery (the extension sketched in the
// paper's footnote 2): on an uncorrectable detected fault, only the
// affected 32-bit word is refetched from the L2 instead of invalidating
// and refilling the whole line. Dirty neighbours on the line survive and
// no write-back is needed.
func (c *L1Data) SetSubBlock(on bool) { c.subBlock = on }

// SetLineDisable arms per-line strike tracking: after strikes uncorrected
// strikes on the same frame within window L1D accesses, the frame is
// disabled and its set degrades to fewer ways (for the direct-mapped L1D,
// to forced misses served straight from the L2). strikes <= 0 disarms the
// mechanism — the paper's semantics, and the default.
func (c *L1Data) SetLineDisable(strikes int, window uint64) {
	c.disableStrikes = strikes
	if window == 0 {
		window = 1 << 62 // effectively unwindowed
	}
	c.disableWindow = window
}

// ForceDisable pins the first ceil(frac * lines) frames dead — the
// experiment control behind the graceful-degradation curve. Pinned frames
// are not re-enabled by frequency drops and do not count as disable
// events; they model capacity lost before the run started.
func (c *L1Data) ForceDisable(frac float64) {
	if frac <= 0 {
		return
	}
	total := len(c.tab.lines)
	n := int(frac*float64(total) + 0.999999)
	if n > total {
		n = total
	}
	for i := range c.tab.lines[:n] {
		if ln := &c.tab.lines[i]; !ln.dead {
			ln.dead = true
			ln.pinned = true
			ln.valid = false
			ln.dirty = false
			c.deadLines++
			c.tab.mark(i)
		}
	}
}

// DisabledLines returns the number of currently disabled frames.
func (c *L1Data) DisabledLines() int { return c.deadLines }

// DisabledFraction returns the fraction of L1D capacity currently
// disabled.
func (c *L1Data) DisabledFraction() float64 {
	total := len(c.tab.lines)
	if total == 0 {
		return 0
	}
	return float64(c.deadLines) / float64(total)
}

// StrikeHistogram buckets the frames that took uncorrected strikes by
// their cumulative strike count: bucket i holds frames with exactly i
// strikes, the last bucket holds frames with 7 or more. Untouched frames
// are not counted, so the histogram is all-zero for a strike-free run.
func (c *L1Data) StrikeHistogram() [8]uint64 {
	var h [8]uint64
	for i := range c.tab.strikes {
		b := c.tab.strikes[i].strikeTotal
		if b == 0 {
			continue
		}
		if b > 7 {
			b = 7
		}
		h[b]++
	}
	return h
}

// TakeEpochEvidence returns the spatial evidence of the closing
// controller epoch — the number of distinct frames that took an
// uncorrected strike, and the disabled-capacity fraction — and opens the
// next epoch. The frequency controller consumes it at epoch boundaries.
func (c *L1Data) TakeEpochEvidence() (distinctLines int, disabledFrac float64) {
	distinctLines = c.epochDistinct
	c.epochDistinct = 0
	c.epochSeq++
	return distinctLines, c.DisabledFraction()
}

// noteStrike records an uncorrected strike against frame i and reports
// whether the frame has exhausted its strike budget and must be disabled.
// It also feeds the per-epoch spatial evidence, which is tracked even
// while line disable itself is disarmed (the evidence costs two integer
// compares on a path that already paid for a detected fault). Its mark
// also covers the refetch, invalidate and disable that follow on frame i.
func (c *L1Data) noteStrike(i int) bool {
	c.tab.mark(i)
	ln := &c.tab.strikes[i]
	if ln.epochMark != c.epochSeq {
		ln.epochMark = c.epochSeq
		c.epochDistinct++
	}
	ln.strikeTotal++
	if c.disableStrikes <= 0 {
		return false
	}
	now := c.Stats.Reads + c.Stats.Writes
	if ln.strikes == 0 || now-ln.strikeMark > c.disableWindow {
		ln.strikeMark = now
		ln.strikes = 0
	}
	ln.strikes++
	return int(ln.strikes) >= c.disableStrikes
}

// disableLine marks (already invalidated) frame i dead.
func (c *L1Data) disableLine(i int, addr simmem.Addr) {
	c.tab.lines[i].dead = true
	c.deadLines++
	c.Recovery.LineDisables++
	if c.rt != nil {
		c.rt.LineDisable(uint64(addr), int(c.tab.strikes[i].strikes), c.deadLines)
	}
}

// reenableAll returns every non-pinned dead frame to service with a clean
// strike window. Frames stay invalid (they were invalidated at disable).
func (c *L1Data) reenableAll() {
	for i := range c.tab.lines {
		if ln := &c.tab.lines[i]; ln.dead && !ln.pinned {
			ln.dead = false
			c.tab.strikes[i].strikes = 0
			c.deadLines--
			c.Recovery.LineReEnables++
			c.tab.mark(i)
		}
	}
}

// syncDisabled recounts the disabled frames after a snapshot restore.
func (c *L1Data) syncDisabled() {
	n := 0
	for i := range c.tab.lines {
		if c.tab.lines[i].dead {
			n++
		}
	}
	c.deadLines = n
}

// SetCycleTime moves the cache (and its fault process) to relative cycle
// time cr. Latency and per-access energy scale immediately; cached data is
// unaffected (the paper notes that varying the clock frequency, unlike the
// supply voltage, requires no cache flush).
func (c *L1Data) SetCycleTime(cr float64) {
	if cr > c.cr && c.deadLines > 0 {
		// Frequency drop: the longer cycle gives the marginal cells that
		// accumulated strikes a second chance, so dead frames (except
		// experiment-pinned ones) return to service with a clean window.
		c.reenableAll()
	}
	c.cr = cr
	c.vsr = circuit.VoltageSwing(cr)
	// The array access time shrinks with the cycle time, but the
	// load-to-use latency seen by the in-order core cannot drop below one
	// core cycle — this floor is why the paper finds Cr = 0.5 almost
	// always preferable to Cr = 0.25 (Section 5.4: the energy keeps
	// falling but the delay gain has been exhausted while the error rate
	// soars).
	c.lat = c.tab.cfg.Latency * cr
	if c.lat < 1 {
		c.lat = 1
	}
	c.handBack()
	c.injector.SetCycleTime(cr)
}

// SetInjection turns fault injection on the cache's fault process on or
// off. Injection is switched here rather than on the process, which must
// first be handed back the accesses served from the countdown.
func (c *L1Data) SetInjection(on bool) {
	c.handBack()
	c.injector.SetEnabled(on)
}

// draw returns the fault mask of one array access: zero without calling
// the fault process while the countdown lasts.
func (c *L1Data) draw(addr simmem.Addr) uint32 {
	if c.quiet > 0 {
		c.quiet--
		return 0
	}
	return c.event(addr)
}

// event draws one access from the fault process, after handing it back
// the accesses served since its last promise, and takes its next promise.
func (c *L1Data) event(addr simmem.Addr) uint32 {
	c.handBack()
	mask := uint32(c.injector.NextAt(uint64(addr)))
	c.quiet = c.injector.Quiet()
	c.quietFrom = c.quiet
	return mask
}

// handBack advances the fault process over the accesses served from the
// countdown and clears it, so the next access calls the process again.
func (c *L1Data) handBack() {
	if n := c.quietFrom - c.quiet; n > 0 {
		c.injector.Skip(n)
	}
	c.quiet, c.quietFrom = 0, 0
}

// CycleTime returns the current relative cycle time.
func (c *L1Data) CycleTime() float64 { return c.cr }

// InvalidateRange drops any lines overlapping the given byte range without
// write-back (DMA coherence).
func (c *L1Data) InvalidateRange(addr simmem.Addr, n int) { c.tab.invalidateRange(addr, n) }

// FlushRange writes back every dirty line overlapping the given byte range
// through sink and marks it clean — the write-back half of a coherent DMA.
func (c *L1Data) FlushRange(addr simmem.Addr, n int, sink func(simmem.Addr, []byte) error) error {
	return c.tab.flushRange(addr, n, sink)
}

// The charge helpers below are the only places the L1D's stall-cycle,
// attribution, and energy accumulators may be written; the cycleacct
// analyzer enforces this, so any cost-model change to the clumsy cache
// stays confined to these lines. Each helper adds the charged cycles to
// exactly one Breakdown bucket, which is what keeps the buckets summing
// to Cycles exactly.

// chargeStall accounts stall cycles reported by the next level on the
// normal (non-recovery) path, split into the L2's share and main
// memory's share (memPart, a delta of the attached memory's accumulator
// around the backend call).
//
//lint:cycle-accounting
func (c *L1Data) chargeStall(cyc, memPart float64) {
	c.Cycles += cyc
	c.Breakdown.L2 += cyc - memPart
	c.Breakdown.Mem += memPart
}

// chargeRecoveryStall accounts backend stall cycles spent on recovery
// traffic — sub-block refetches, recovery write-backs, and post-recovery
// refills — attributed wholly to the recovery bucket.
//
//lint:cycle-accounting
func (c *L1Data) chargeRecoveryStall(cyc float64) {
	c.Cycles += cyc
	c.Breakdown.Recovery += cyc
}

// chargeArrayRead accounts one first-attempt drive of the array on the
// read path: the scaled access latency plus read energy at the current
// voltage swing.
//
//lint:cycle-accounting
func (c *L1Data) chargeArrayRead() {
	c.Cycles += c.lat
	c.Breakdown.L1D += c.lat
	c.Energy.ReadSwing += c.vsr
}

// chargeArrayRetry accounts a re-drive of the array forced by the
// k-strike machinery (a retry, or a re-read after a recovery): the same
// latency and energy as a normal read, attributed to recovery.
//
//lint:cycle-accounting
func (c *L1Data) chargeArrayRetry() {
	c.Cycles += c.lat
	c.Breakdown.Recovery += c.lat
	c.Energy.ReadSwing += c.vsr
}

// chargeArrayWrite accounts one drive of the array on the write path.
//
//lint:cycle-accounting
func (c *L1Data) chargeArrayWrite() {
	c.Cycles += c.lat
	c.Breakdown.L1D += c.lat
	c.Energy.WriteSwing += c.vsr
}

// chargeFillDrive accounts the single array drive of a line fill (the
// latency is already covered by the backend's reported stall cycles).
//
//lint:cycle-accounting
func (c *L1Data) chargeFillDrive() { c.Energy.WriteSwing += c.vsr }

// fill brings the line containing addr, which missed, into a frame and
// returns the frame. When every way of the set is disabled it returns
// (-1, nil) after counting the forced miss; the caller serves the access
// via the L2 bypass path. recovering marks a refill forced by the recovery
// machinery: its backend stalls land in the recovery bucket instead of
// the L2/memory split.
func (c *L1Data) fill(addr simmem.Addr, isWrite, recovering bool) (int, error) {
	if isWrite {
		c.Stats.WriteMisses++
	} else {
		c.Stats.ReadMisses++
	}
	i := c.tab.victim(addr)
	if i < 0 {
		return -1, nil
	}
	victim, data := &c.tab.lines[i], c.tab.lineBytes(i)
	if victim.valid && victim.dirty {
		// A dirty line carries values that may have been corrupted by a
		// write-path fault; writing it back is the paper's path by which
		// "an incorrect value from level-1 is written to" the L2.
		c.Stats.Writebacks++
		base := simmem.Addr(victim.tag) << c.tab.setShift
		m0 := c.memCycles()
		cyc, err := c.next.StoreLine(base, data)
		if err != nil {
			return -1, err
		}
		if recovering {
			c.chargeRecoveryStall(cyc)
		} else {
			c.chargeStall(cyc, c.memCycles()-m0)
		}
	}
	base := c.tab.lineBase(addr)
	m0 := c.memCycles()
	cyc, err := c.next.FetchLine(base, data)
	if err != nil {
		// A line wider than the L2's is filled one L2 line at a time, so
		// the fill can fail with part of the new line already in the
		// frame.
		c.tab.mark(i)
		return -1, err
	}
	if recovering {
		c.chargeRecoveryStall(cyc)
	} else {
		c.chargeStall(cyc, c.memCycles()-m0)
	}
	// The fill drives the array once with the (correct) L2 data, so the
	// line holds no fault.
	c.chargeFillDrive()
	clear(c.tab.flip[len(data)/4*i:][:len(data)/4])
	_, tag := c.tab.index(addr)
	victim.valid = true
	victim.dirty = false
	victim.tag = tag
	c.tab.touch(i)
	return i, nil
}

func leWord(b []byte) uint32 {
	_ = b[3] // one bounds check for the four bytes
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeWord(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// readWord performs the full clumsy read of the 32-bit word holding the
// byte at a, which op accesses: injection, check, strikes, and recovery
// through L2. An access to the unmapped first page fails before it
// reaches the cache. A hit inside the fault countdown on a word that holds
// no fault returns at once, under every scheme: it is the general path's
// first attempt when the mask and the error pattern are both zero.
func (c *L1Data) readWord(op string, a simmem.Addr) (uint32, error) {
	if a < simmem.PageBase {
		return 0, unmapped(op, a)
	}
	addr := a &^ 3
	c.Stats.Reads++
	i := c.tab.lookup(addr)
	if i >= 0 {
		c.tab.hit(i)
		if o := c.tab.wordOffset(i, addr); c.quiet > 0 && c.tab.flip[o>>2] == 0 {
			c.quiet--
			c.chargeArrayRead()
			return leWord(c.tab.data[o:]), nil
		}
	}
	return c.readFrame(addr, i)
}

// readFrame is the general read of the word at addr, whose lookup
// returned frame i: the fill of a miss, the fault draw, the check and the
// strike and recovery loop.
func (c *L1Data) readFrame(addr simmem.Addr, i int) (uint32, error) {
	if i < 0 {
		var err error
		if i, err = c.fill(addr, false, false); err != nil {
			return 0, err
		}
		if i < 0 {
			return c.bypassReadWord(addr)
		}
	}
	o := c.tab.wordOffset(i, addr)
	recoveries := 0
	for attempt := 1; ; attempt++ {
		if attempt > 1 || recoveries > 0 {
			// Everything beyond the first pristine array drive of this
			// word is recovery-induced: a k-strike retry or a re-read
			// after a refetch.
			c.chargeArrayRetry()
		} else {
			c.chargeArrayRead()
		}
		stored := leWord(c.tab.data[o:])
		mask := c.draw(addr)
		if mask != 0 {
			c.Recovery.FaultsOnRead++
			if c.rt != nil {
				c.rt.FaultInjection("read", bits.OnesCount32(mask), uint64(addr))
			}
		}
		v := stored ^ mask
		switch c.detection {
		case DetectionNone:
			return v, nil
		case DetectionECC:
			decoded, outcome := classifyECC(v, stored^c.tab.flip[o>>2])
			switch outcome {
			case eccClean:
				return v, nil
			case eccCorrected:
				c.Recovery.Corrected++
				if c.rt != nil {
					c.rt.Recovery("ecc_correct", attempt, uint64(addr))
				}
				// Scrub: the corrected value is written back into the
				// array so a persistent write fault does not linger.
				putLeWord(c.tab.data[o:], decoded)
				c.tab.flip[o>>2] = 0
				c.tab.mark(i)
				return decoded, nil
			case eccMiscorrected:
				c.Recovery.Miscorrected++
				return decoded, nil
			}
			// Double-bit: detected but uncorrectable; fall through to the
			// strike/recovery machinery below.
		case DetectionParity:
			fallthrough
		default: // any unrecognised scheme behaves like parity
			if wordParity(mask^c.tab.flip[o>>2]) == 0 {
				return v, nil
			}
		}
		c.Recovery.ParityErrors++
		if recoveries >= 4 {
			// Safety valve for pathological fault rates (scale >> 1): after
			// several full recoveries the hardware gives up and forwards
			// the word; real rates never reach this.
			return v, nil
		}
		if attempt < c.strikes {
			// Two-/three-strike: assume a transient read fault and try
			// the L1 again before declaring the block bad.
			c.Recovery.Retries++
			if c.rt != nil {
				c.rt.Recovery("retry", attempt, uint64(addr))
			}
			continue
		}
		// The strikes are exhausted: the fault is uncorrected at this
		// level. Attribute a strike to the frame; a frame that keeps
		// collecting them inside the window is disabled rather than
		// endlessly refetched.
		disable := c.noteStrike(i)
		if c.subBlock && !disable {
			// Sub-block recovery (footnote 2): refetch only the affected
			// word from L2; the rest of the line, including dirty
			// neighbours, stays put and no write-back is needed.
			c.Recovery.Recoveries++
			recoveries++
			if c.rt != nil {
				c.rt.Recovery("subblock", attempt, uint64(addr))
			}
			word := c.word[:]
			cyc, err := c.next.FetchLine(addr, word)
			if err != nil {
				return 0, err
			}
			c.chargeRecoveryStall(cyc)
			copy(c.tab.data[o:o+4], word)
			c.tab.flip[o>>2] = 0
			attempt = 0
			continue
		}
		// Out of strikes: treat it as a write fault, invalidate the block
		// and serve from L2 (Section 4). The dirty line is written back
		// first to preserve legitimate stores on the rest of the line.
		c.Recovery.Recoveries++
		recoveries++
		if c.rt != nil {
			c.rt.Recovery("line", attempt, uint64(addr))
		}
		c.Stats.Invalidations++
		ln := &c.tab.lines[i]
		if ln.dirty {
			c.Stats.Writebacks++
			base := simmem.Addr(ln.tag) << c.tab.setShift
			cyc, err := c.next.StoreLine(base, c.tab.lineBytes(i))
			if err != nil {
				return 0, err
			}
			c.chargeRecoveryStall(cyc)
		}
		ln.valid = false
		ln.dirty = false
		if disable {
			c.disableLine(i, addr)
		}
		var err error
		if i, err = c.fill(addr, false, true); err != nil {
			return 0, err
		}
		if i < 0 {
			// The disable emptied the set: serve the word uncached.
			return c.bypassReadWord(addr)
		}
		o = c.tab.wordOffset(i, addr)
		// The refetched word is read once more through the (still clumsy)
		// array; the loop continues on a fault-free word, so a transient on
		// this read is detected again rather than silently returned.
		attempt = 0
	}
}

// bypassReadWord serves one aligned word straight from the L2: the access
// pattern of a set whose every frame is disabled. The broken array is not
// driven, so no fault is injected and no array energy is charged; the
// cost is the full L2 round trip on every access.
func (c *L1Data) bypassReadWord(addr simmem.Addr) (uint32, error) {
	c.Recovery.Bypasses++
	word := c.word[:]
	m0 := c.memCycles()
	cyc, err := c.next.FetchLine(addr, word)
	if err != nil {
		return 0, err
	}
	// Bypass is the degraded steady state of a set whose frames are all
	// dead, not a recovery event: its round trips split into the normal
	// L2/memory buckets.
	c.chargeStall(cyc, c.memCycles()-m0)
	return leWord(word), nil
}

// bypassWriteWord writes one aligned word straight through to the L2.
func (c *L1Data) bypassWriteWord(addr simmem.Addr, v uint32) error {
	c.Recovery.Bypasses++
	word := c.word[:]
	putLeWord(word, v)
	m0 := c.memCycles()
	cyc, err := c.next.StoreLine(addr, word)
	if err != nil {
		return err
	}
	c.chargeStall(cyc, c.memCycles()-m0)
	return nil
}

// writeWord performs the clumsy write of the aligned word at addr. A
// write-path fault stays behind as the word's error pattern, the bits by
// which the stored word differs from v, for the next read's check to find
// (parity misses an even number of flipped bits).
func (c *L1Data) writeWord(addr simmem.Addr, v uint32) error {
	c.Stats.Writes++
	i := c.tab.lookup(addr)
	if i >= 0 {
		c.tab.hit(i)
	} else {
		var err error
		if i, err = c.fill(addr, true, false); err != nil {
			return err
		}
		if i < 0 {
			return c.bypassWriteWord(addr, v)
		}
	}
	c.chargeArrayWrite()
	o := c.tab.wordOffset(i, addr)
	mask := c.draw(addr)
	if mask != 0 {
		c.Recovery.FaultsOnWrite++
		if c.rt != nil {
			c.rt.FaultInjection("write", bits.OnesCount32(mask), uint64(addr))
		}
	}
	putLeWord(c.tab.data[o:], v^mask)
	c.tab.flip[o>>2] = mask
	c.tab.lines[i].dirty = true
	c.tab.mark(i)
	return nil
}

// Load32 implements simmem.Memory. It is small enough to inline, so a
// load costs its caller one call.
func (c *L1Data) Load32(a simmem.Addr) (uint32, error) {
	return c.readWord("load32", a&^3)
}

// Store32 implements simmem.Memory.
func (c *L1Data) Store32(a simmem.Addr, v uint32) error {
	a = simmem.Align(a, 4)
	if a < simmem.PageBase {
		return unmapped("store32", a)
	}
	return c.writeWord(a, v)
}

// Load8 reads a byte via the containing word. Like Load32 it inlines.
func (c *L1Data) Load8(a simmem.Addr) (uint8, error) {
	w, err := c.readWord("load8", a)
	return uint8(w >> ((a & 3) * 8)), err
}

// Store8 writes a byte with a read-modify-write of the word.
func (c *L1Data) Store8(a simmem.Addr, v uint8) error {
	w, err := c.readWord("store8", a)
	if err != nil {
		return err
	}
	shift := (a & 3) * 8
	w = w&^(0xff<<shift) | uint32(v)<<shift
	return c.writeWord(a&^3, w)
}

// unmapped is the error of op's access to a in the unmapped first page.
// The cache mirrors the address validation of the golden space so that a
// corrupted pointer faults identically on both memories. Misalignment is
// not a fault: the low address bits are ignored (ARM behaviour), handled
// by simmem.Align and the word masks at the call sites.
func unmapped(op string, a simmem.Addr) error {
	return &simmem.AccessError{Op: op, Addr: a, Reason: "address in unmapped page"}
}

var _ simmem.Memory = (*L1Data)(nil)
