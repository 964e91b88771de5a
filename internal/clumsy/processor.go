package clumsy

import (
	"errors"
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/energy"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

// Planes selects which execution segments receive fault injection, for the
// control-plane / data-plane experiments of Section 5.2.
type Planes int

const (
	PlaneNone Planes = 0
	// PlaneControl injects faults only during Setup (table construction).
	PlaneControl Planes = 1 << iota
	// PlaneData injects faults only during packet processing.
	PlaneData
	// PlaneBoth injects faults everywhere.
	PlaneBoth = PlaneControl | PlaneData
)

func (p Planes) String() string {
	switch p {
	case PlaneControl:
		return "control plane"
	case PlaneData:
		return "data plane"
	case PlaneBoth:
		return "both planes"
	default:
		return "no injection"
	}
}

// RecoveryPolicy selects what the faulty run does when a fatal error
// strikes during packet processing.
//
//lint:exhaustive
type RecoveryPolicy int

const (
	// RecoverAbort ends the run at the first fatal error — the paper's
	// measurement semantics (Section 4.1: figures are based on the packets
	// processed until the fatal error). This is the default; every
	// paper-fidelity table and figure is produced under it.
	RecoverAbort RecoveryPolicy = iota
	// RecoverDrop contains the fault at packet granularity, the way the
	// paper argues real routers behave (Section 2: drop the offending
	// packet and keep forwarding): the watchdog-budget cycles are charged,
	// the packet is dropped, the control-plane state is rolled back to the
	// last packet boundary from the checkpoint, and the run continues with
	// the next packet.
	RecoverDrop
	// RecoverDegrade is RecoverDrop plus the escalating recovery ladder:
	// per-line strike tracking disables frames that keep faulting
	// (correlated and permanent faults k-strike retry can never clear),
	// and under the dynamic scheme the frequency controller receives
	// spatial evidence — distinct faulting lines per epoch and the
	// disabled-capacity fraction — and backs the operating point off when
	// faults stop looking like independent transients.
	RecoverDegrade
)

func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverAbort:
		return "abort"
	case RecoverDrop:
		return "drop"
	case RecoverDegrade:
		return "degrade"
	default:
		return "abort"
	}
}

// ParseRecoveryPolicy parses the CLI spelling of a policy.
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch s {
	case "", "abort":
		return RecoverAbort, nil
	case "drop":
		return RecoverDrop, nil
	case "degrade":
		return RecoverDegrade, nil
	default:
		return RecoverAbort, fmt.Errorf("clumsy: unknown recovery policy %q (want abort, drop, or degrade)", s)
	}
}

// FaultRegime selects the statistical structure of the injected faults.
//
//lint:exhaustive
type FaultRegime int

const (
	// RegimePaper is the memoryless per-access Bernoulli process of
	// Section 3 — the default, and the regime behind every paper-fidelity
	// table and figure.
	RegimePaper FaultRegime = iota
	// RegimeBurst is the Gilbert–Elliott two-state process: voltage-droop
	// or thermal episodes multiply the base fault rate for short
	// stretches of accesses.
	RegimeBurst
	// RegimePermanent layers a per-line stuck-at fault map over the paper
	// process: marginal cells fault on every access once Cr drops below
	// their per-cell critical cycle time.
	RegimePermanent
)

func (r FaultRegime) String() string {
	switch r {
	case RegimePaper:
		return "paper"
	case RegimeBurst:
		return "burst"
	case RegimePermanent:
		return "permanent"
	default:
		return "paper"
	}
}

// ParseFaultRegime parses the CLI spelling of a fault regime.
func ParseFaultRegime(s string) (FaultRegime, error) {
	switch s {
	case "", "paper":
		return RegimePaper, nil
	case "burst":
		return RegimeBurst, nil
	case "permanent":
		return RegimePermanent, nil
	default:
		return RegimePaper, fmt.Errorf("clumsy: unknown fault regime %q (want paper, burst, or permanent)", s)
	}
}

// Recovery-ladder defaults, in force when RecoverDegrade leaves the
// corresponding Config knob at zero.
const (
	// DefaultLineDisableStrikes is the per-frame strike budget S: the
	// S-th uncorrected strike on one frame inside the window disables it.
	DefaultLineDisableStrikes = 3
	// DefaultLineDisableWindow is the strike window in L1D accesses.
	DefaultLineDisableWindow = 4096
)

// ErrAppPanic marks a Go panic raised by an application while processing a
// packet — typically an out-of-range slice index or similar computed from
// corrupted simulated memory. The packet loop contains it with recover()
// and treats it like any other fatal error.
var ErrAppPanic = errors.New("clumsy: application panicked")

// ErrDropRateExceeded ends a drop-and-continue run whose drop fraction
// exceeded Config.MaxDropRate — the graceful-degradation threshold beyond
// which the processor is considered failed rather than clumsy.
var ErrDropRateExceeded = errors.New("clumsy: drop rate exceeded MaxDropRate")

// Config describes one simulation run. Every field that can change a
// Result must flow into the campaign fingerprint — by name, through a
// study's Extra cell parameters, or not at all with a documented reason;
// the fpcover analyzer enforces the classification.
//
//lint:fingerprint-source
type Config struct {
	//lint:fingerprint-extra per-app studies encode the app in the study name
	App     string // NetBench application name
	Packets int    // trace length
	Seed    uint64 // experiment seed (trace + fault stream)

	//lint:fingerprint-extra operating-point grids carry the cycle time in Extra
	CycleTime float64 // static relative cycle time of the L1D (ignored when Dynamic)
	//lint:fingerprint-extra scheme cells name static/dynamic in Extra
	Dynamic bool // use the frequency-adaptation controller

	// Dynamic-controller overrides (zero = the paper's defaults: 100
	// packets per epoch, X1 = 2.0, X2 = 0.8). The threshold tuning study
	// sets X1 and X2; no study sets EpochPackets.
	//lint:fingerprint-exempt no study sets it; every cell runs the default 100-packet epoch
	EpochPackets int
	//lint:fingerprint-extra the threshold-tuning study fingerprints its grid point in Extra
	X1, X2 float64

	//lint:fingerprint-extra detection-scheme cells carry the scheme in Extra
	Detection cache.Detection
	//lint:fingerprint-extra detection-scheme cells carry the strike count in Extra
	Strikes int // 1..3, recovery scheme under parity/ECC
	// SubBlock selects sub-block (per-word) recovery instead of full-line
	// invalidation — the extension of the paper's footnote 2.
	//lint:fingerprint-extra sub-block cells carry the recovery granularity in Extra
	SubBlock bool

	FaultScale float64 // multiplier on the physical fault rate (1 = paper)
	//lint:fingerprint-extra the error-behaviour study passes the plane as Extra
	Planes Planes // which planes receive faults

	// Regime selects the fault process of the faulty run: the paper's
	// memoryless process (the default), Gilbert–Elliott bursts, or the
	// permanent/intermittent stuck-at overlay.
	//lint:fingerprint-extra the reliability study names the regime in Extra
	Regime FaultRegime

	// LineDisableStrikes arms per-line strike tracking: after this many
	// uncorrected strikes on one frame within LineDisableWindow L1D
	// accesses, the frame is disabled. Zero leaves the mechanism off
	// unless Recovery is RecoverDegrade, which falls back to
	// DefaultLineDisableStrikes/DefaultLineDisableWindow.
	//lint:fingerprint-exempt no study sets it; degrade cells run the default budget
	LineDisableStrikes int
	//lint:fingerprint-exempt no study sets it; degrade cells run the default window
	LineDisableWindow uint64

	// PreDisableFrac force-disables this fraction of L1D frames before
	// the faulty run starts — the x-axis control of the graceful-
	// degradation curve. The frames are pinned: frequency drops do not
	// re-enable them.
	//lint:fingerprint-extra the degradation curve sweeps this as its Extra axis
	PreDisableFrac float64

	// MinDwellEpochs, under the dynamic scheme, is the minimum number of
	// controller epochs between applied operating-point changes. Zero
	// (the default) keeps the paper's undamped semantics.
	//lint:fingerprint-exempt no study sets it; every dynamic cell runs undamped
	MinDwellEpochs int

	// WatchdogFactor bounds per-packet instructions at this multiple of
	// the golden run's worst packet. A stuck execution (the paper's
	// infinite-loop fatal error) spins for this budget before it is
	// declared dead, and the burned cycles count toward the run — which is
	// what makes fatal configurations expensive in the EDF metric, as in
	// the paper's off-scale bars. Zero selects the default of 500.
	//lint:fingerprint-exempt fixed default across every study; no cell varies it
	WatchdogFactor float64

	// Recovery selects the fatal-error policy of the faulty run:
	// RecoverAbort (the default) reproduces the paper's semantics,
	// RecoverDrop contains fatal errors at packet granularity via
	// checkpoint/restore of the simulated memory. A fatal error during
	// Setup always aborts: there is no pre-fault state to restore before
	// the control plane has been built.
	Recovery RecoveryPolicy

	// MaxDropRate, under RecoverDrop, is the graceful-degradation
	// threshold: once the fraction of attempted packets that were dropped
	// exceeds it, the run aborts with ErrDropRateExceeded. Zero means no
	// threshold (drop forever).
	MaxDropRate float64

	// ScrubInterval, for stateful applications, walks the flow-state
	// table with verified reads every this many completed packets,
	// catching silent corruption between lookups. Zero disables the
	// scrub; verify-on-lookup and the recovery ladder stay armed whenever
	// the app keeps a state table.
	//lint:fingerprint-extra the state-integrity study sweeps the scrub interval in Extra
	ScrubInterval int

	// StateStrikes bounds the per-record recovery ladder: detection
	// strike 1 evicts the record, later strikes rebuild it from the
	// golden shadow, and reaching the budget ends the run with
	// ErrStateCorrupt. Zero selects DefaultStateStrikes; a negative
	// budget is rejected.
	//lint:fingerprint-extra the state-integrity study carries the strike budget in Extra
	StateStrikes int

	// Workload, when non-nil, post-processes the generated trace with the
	// workload-v2 substrate (temporal shape, adversarial malformed
	// packets, flow churn) before the run. Run applies it; RunWithTrace
	// callers shape their trace themselves.
	//lint:fingerprint-extra the state-integrity study names the workload spec in Extra
	Workload *workload.Spec

	// SpaceBytes overrides the simulated memory size (0 = auto).
	//lint:fingerprint-exempt no study sets it; every cell sizes its memory from the trace
	SpaceBytes int

	// L1DSize overrides the L1 data cache capacity in bytes (0 = the
	// StrongARM default of 4 KB); used by the geometry ablation.
	//lint:fingerprint-extra the geometry ablation sweeps this as its Extra axis
	L1DSize int

	// Telemetry, when non-nil, receives counters and structured trace
	// events from the faulty run (the golden reference stays silent). Nil
	// falls back to the process-wide hub installed with
	// SetDefaultTelemetry; when that is nil too, telemetry is off and the
	// simulation hot paths are untouched.
	//lint:fingerprint-exempt observability wiring, cannot change a Result
	Telemetry *telemetry.Telemetry
}

func (c Config) withDefaults() Config {
	if c.CycleTime == 0 {
		c.CycleTime = 1
	}
	if c.Strikes == 0 {
		c.Strikes = 1
	}
	if c.FaultScale == 0 {
		c.FaultScale = 1
	}
	if c.Planes == 0 {
		c.Planes = PlaneBoth
	}
	if c.WatchdogFactor == 0 {
		c.WatchdogFactor = 500
	}
	if c.Telemetry == nil {
		c.Telemetry = DefaultTelemetry()
	}
	return c
}

// check rejects a defaulted configuration that the model cannot simulate,
// naming the field. The negated comparisons also reject NaN.
func (c Config) check() error {
	switch {
	case c.Strikes < 1 || c.Strikes > 3:
		return fmt.Errorf("clumsy: Strikes %d outside 1..3", c.Strikes)
	case !(c.CycleTime > 0 && c.CycleTime <= 1):
		return fmt.Errorf("clumsy: CycleTime %g outside (0, 1]", c.CycleTime)
	case !(c.FaultScale >= 0):
		return fmt.Errorf("clumsy: FaultScale %g is negative", c.FaultScale)
	case !(c.WatchdogFactor >= 0):
		return fmt.Errorf("clumsy: WatchdogFactor %g is negative", c.WatchdogFactor)
	case !(c.MaxDropRate >= 0):
		return fmt.Errorf("clumsy: MaxDropRate %g is negative", c.MaxDropRate)
	case !(c.PreDisableFrac >= 0 && c.PreDisableFrac <= 1):
		return fmt.Errorf("clumsy: PreDisableFrac %g outside [0, 1]", c.PreDisableFrac)
	case c.StateStrikes < 0:
		return fmt.Errorf("clumsy: StateStrikes %d is negative", c.StateStrikes)
	}
	return nil
}

// Result carries everything measured in one golden+faulty run pair.
type Result struct {
	Config Config

	// Golden (fault-free, full-swing) reference.
	GoldenCycles   float64
	GoldenInstrs   uint64
	GoldenDelay    float64 // data-plane cycles per packet
	GoldenEnergy   energy.Breakdown
	GoldenL1DStats cache.Stats

	// Clumsy run.
	Cycles float64
	// Breakdown attributes Cycles to per-component buckets — compute,
	// L1D/L1I/L2/memory stall, recovery, and frequency-switch penalty.
	// The buckets partition Cycles exactly on every standard
	// configuration (see cache.CycleBreakdown and the attribution tests).
	Breakdown cache.CycleBreakdown
	Instrs    uint64
	Delay     float64 // data-plane cycles per completed packet
	Energy    energy.Breakdown
	L1DStats  cache.Stats
	Recovery  cache.RecoveryStats
	FatalErr  error // the error that ended a fatal run (nil otherwise)
	SetupDied bool  // the fatal error struck during the control plane

	// Fault-containment bookkeeping (RecoverDrop runs; zero under abort).
	Contained     int    // fatal errors contained as packet drops
	RestoredPages uint64 // checkpoint pages rolled back across all drops

	// State-integrity bookkeeping (zero for stateless apps and while the
	// machinery is dormant). Detected counts checksum mismatches caught
	// on lookup or scrub; Diverged and Undetected come from the
	// end-of-run audit against the golden shadow — Undetected is the
	// silent channel, records differing from the shadow whose stored
	// checksum nevertheless verifies (a checksum collision).
	StateRecords    int
	StateDetected   uint64
	StateEvictions  uint64
	StateRebuilds   uint64
	StateScrubs     uint64 // scrub passes completed
	StateDiverged   int
	StateUndetected int

	// Recovery-ladder bookkeeping (zero while the ladder is dormant).
	LinesDisabled    int       // L1D frames dead at run end
	DisabledFrac     float64   // fraction of L1D capacity dead at run end
	StrikeHist       [8]uint64 // frames bucketed by cumulative strikes (7 = 7+)
	BurstEpisodes    uint64    // bad-state episodes of the burst regime
	PermanentHits    uint64    // stuck-at faults below the critical cycle time
	IntermittentHits uint64    // stuck-at faults inside the intermittent band
	SpatialBackoffs  int       // slow-downs forced by spatial evidence

	Report metrics.Report

	// Dynamic-scheme bookkeeping (nil for static runs).
	LevelPackets []uint64
	Switches     int
	Timeline     []FreqEvent
}

// FreqEvent records one frequency change of a dynamic run.
type FreqEvent struct {
	Packet    int     // packet index at which the change took effect
	CycleTime float64 // the new relative cycle time
}

// Fallibility returns the fallibility factor of the clumsy run.
func (r *Result) Fallibility() float64 { return r.Report.Fallibility() }

// FatalProbability returns the implied per-packet fatal error probability.
func (r *Result) FatalProbability() float64 { return r.Report.FatalProbability() }

// EDF returns the energy^k·delay^m·fallibility^n product of the clumsy run
// under the given exponents.
func (r *Result) EDF(e metrics.EDFExponents) float64 {
	return e.EDF(r.Energy.Total(), r.Delay, r.Fallibility())
}

// GoldenEDF returns the product for the golden reference (fallibility 1).
func (r *Result) GoldenEDF(e metrics.EDFExponents) float64 {
	return e.EDF(r.GoldenEnergy.Total(), r.GoldenDelay, 1)
}

// Run executes the golden and the clumsy run for the configuration and
// compares them. The trace is generated from the application's workload
// definition; use RunWithTrace to replay a stored trace.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	trace, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	return RunWithTrace(cfg, trace)
}

// generate builds the configuration's trace from its application's
// workload definition, shaped by cfg.Workload when set.
func generate(cfg Config) (*packet.Trace, error) {
	app, err := apps.New(cfg.App)
	if err != nil {
		return nil, err
	}
	trace, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.Workload != nil {
		trace = cfg.Workload.Apply(trace, cfg.Seed)
	}
	return trace, nil
}

// RunWithTrace executes the golden and the clumsy run over an explicit
// packet trace (e.g. one replayed from a file written by
// packet.Trace.Serialize) and compares them. Config.Packets is ignored;
// the trace defines the workload length.
func RunWithTrace(cfg Config, trace *packet.Trace) (*Result, error) {
	cfg = cfg.withDefaults()
	g, err := newGolden(cfg, trace)
	if err != nil {
		return nil, err
	}
	return g.run(cfg)
}

// run executes the faulty pass of cfg over the golden pass's trace and
// compares the two. It only reads g, so concurrent runs may share it.
func (g *golden) run(cfg Config) (*Result, error) {
	cfg.Packets = len(g.trace.Packets)
	res := &Result{Config: cfg, GoldenCycles: g.cycles, GoldenInstrs: g.instrs,
		GoldenDelay: g.cal.Delay, GoldenEnergy: g.energy, GoldenL1DStats: g.l1d}

	faulty, err := openNode(cfg, g.trace, nodeOpts{inject: true, arena: true,
		tel: cfg.Telemetry, budget: g.cal.Budget})
	if err == nil {
		defer faulty.Close()
		err = faulty.serve(g.trace)
	}
	if err == nil {
		faulty.fold(res)
		if faulty.guard != nil {
			// End-of-run divergence audit of the flow table, after the fold
			// so the measured statistics exclude its accesses, and with the
			// injector off so the audit itself is clean.
			faulty.proc.SetEnabled(false)
			err = faulty.guard.audit(res)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("clumsy: faulty run failed: %w", err)
	}
	faulty.flushTelemetry(res)

	res.Report = metrics.Compare(g.rec, faulty.rec)
	if res.FatalErr != nil && res.Report.Processed == 0 {
		// A run that died before completing a single packet has no
		// meaningful per-packet delay; charge the golden delay and let the
		// maximal fallibility carry the penalty (the paper reports such
		// configurations as off-scale bars).
		res.Delay = res.GoldenDelay
	}
	return res, nil
}

// fold writes a finished pass's measurements into res: the cost-model
// totals and their per-component attribution, energy, cache and recovery
// statistics, the containment and state-integrity counters, and the
// recovery-ladder state. Every ladder field is zero while the ladder and
// the correlated regimes are dormant, so paper-fidelity results are
// unchanged.
//
//lint:cycle-accounting
func (n *Node) fold(res *Result) {
	h := n.h
	res.Cycles = n.totalCycles()
	// Fold the per-component attribution: the L1D accumulated its own
	// data-side split (array / L2 / memory / recovery stalls); the core,
	// instruction fetch, watchdog burn, and switch penalty join it here.
	// Every term below is a disjoint share of res.Cycles, so the buckets
	// sum to the total exactly (see cache.CycleBreakdown).
	bd := h.L1D.Breakdown
	bd.Compute = n.eng.core - n.eng.burned
	bd.Recovery += n.eng.burned
	bd.L1I = h.L1I.Cycles
	if n.ctrl != nil {
		bd.FreqPenalty = n.ctrl.PenaltyCycles
		res.LevelPackets = n.ctrl.LevelPackets
		res.Switches = n.ctrl.Switches
		res.SpatialBackoffs = n.ctrl.SpatialBackoffs
	}
	res.Breakdown = bd
	res.Instrs = n.eng.instrs
	res.Delay = n.delay()
	res.L1DStats = h.L1D.Stats
	res.Recovery = h.L1D.Recovery
	res.Energy = energy.ParamsForL1D(n.cfg.L1DSize).Compute(energy.Usage{
		Cycles:        res.Cycles,
		L1DReadSwing:  h.L1D.Energy.ReadSwing,
		L1DWriteSwing: h.L1D.Energy.WriteSwing,
		ParityOn:      n.cfg.Detection == cache.DetectionParity,
		ECCOn:         n.cfg.Detection == cache.DetectionECC,
		L1IReads:      h.L1I.Stats.Reads,
		L2Accesses:    h.L2.Stats.Accesses(),
		MemAccesses:   h.Mem.Stats.Accesses(),
	})

	res.FatalErr = n.fatal
	res.SetupDied = n.setupDied
	res.Contained = n.contained
	res.RestoredPages = n.restoredPages
	res.Timeline = n.timeline
	res.LinesDisabled = h.L1D.DisabledLines()
	res.DisabledFrac = h.L1D.DisabledFraction()
	res.StrikeHist = h.L1D.StrikeHistogram()
	if n.burst != nil {
		res.BurstEpisodes = n.burst.Episodes
	}
	if n.stuck != nil {
		res.PermanentHits = n.stuck.PermanentHits
		res.IntermittentHits = n.stuck.IntermittentHits
	}
	if n.guard != nil {
		n.guard.capture(res)
	}
}

// runSetup executes the application's control plane with panic isolation:
// a Go panic raised on corrupted state is converted into a fatal
// application error instead of unwinding the whole process.
func runSetup(app apps.App, ctx *apps.Context, trace *packet.Trace) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w (setup): %v", ErrAppPanic, r)
		}
	}()
	return app.Setup(ctx, trace)
}

// processPacket executes one packet with panic isolation. An application
// that reads fault-corrupted simulated memory can derive an impossible
// value and panic in host code (slice bounds, division by zero); the
// recover here turns that into a fatal error the packet loop can contain
// or abort on, exactly like a watchdog trip.
//
//lint:hot-path
func processPacket(app apps.App, ctx *apps.Context, p *packet.Packet, buf simmem.Addr) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrAppPanic, r) //lint:alloc-ok app-panic diagnostic; a packet that completes never reaches it
		}
	}()
	return app.Process(ctx, p, buf)
}

// isFatal reports whether err is an application-level fatal error (a trap
// on a corrupted address, a traversal cycle, a watchdog trip, or a
// contained application panic) rather than a simulator bug.
func isFatal(err error) bool {
	var ae *simmem.AccessError
	return errors.As(err, &ae) || errors.Is(err, ErrWatchdog) ||
		errors.Is(err, radix.ErrLoop) || errors.Is(err, ErrAppPanic)
}

// autoSpaceBytes sizes the simulated memory for the trace: tables plus all
// packet buffers plus slack.
func autoSpaceBytes(trace *packet.Trace) int {
	total := 8 << 20 // tables, code, queues
	for i := range trace.Packets {
		total += dmaSize(&trace.Packets[i])
	}
	// Round to the next MiB for stable layouts across nearby trace sizes.
	return (total + 1<<20) &^ (1<<20 - 1)
}
