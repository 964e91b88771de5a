package clumsy

import (
	"math"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/telemetry"
)

// sameBits reports bit-exact float64 equality (0.0 vs -0.0 included).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkBreakdown asserts the attribution contract on one finished run: the
// seven buckets partition Result.Cycles bit-exactly (every per-event charge
// at the standard operating points is a dyadic rational well below 2^52, so
// the two independently-accumulated sums agree to the last bit, not just to
// a tolerance), and no bucket is negative.
func checkBreakdown(t *testing.T, res *Result) {
	t.Helper()
	bd := res.Breakdown
	if !sameBits(bd.Total(), res.Cycles) {
		t.Errorf("breakdown does not partition total cycles: sum %v != cycles %v (diff %g)\n%+v",
			bd.Total(), res.Cycles, bd.Total()-res.Cycles, bd)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"compute", bd.Compute}, {"l1d", bd.L1D}, {"l1i", bd.L1I},
		{"l2", bd.L2}, {"mem", bd.Mem}, {"recovery", bd.Recovery},
		{"freq_penalty", bd.FreqPenalty},
	} {
		if f.v < 0 {
			t.Errorf("negative %s bucket: %g", f.name, f.v)
		}
	}
	if res.Cycles > 0 && bd.Compute == 0 && !res.SetupDied {
		t.Error("zero compute bucket on a run that executed instructions")
	}
}

// TestBreakdownPartitionsCycles sweeps every application, the stateful
// ones included, under every recovery policy and fault regime and checks
// the attribution invariant on each combination. This is the tentpole contract of the cycle-attribution
// work: the buckets are a partition of the total, not an estimate of it.
func TestBreakdownPartitionsCycles(t *testing.T) {
	policies := []struct {
		name string
		pol  RecoveryPolicy
	}{{"abort", RecoverAbort}, {"drop", RecoverDrop}, {"degrade", RecoverDegrade}}
	regimes := []struct {
		name string
		reg  FaultRegime
	}{{"paper", RegimePaper}, {"burst", RegimeBurst}, {"permanent", RegimePermanent}}
	for _, app := range append(apps.Names(), "fw", "flowtrack") {
		for _, pol := range policies {
			for _, reg := range regimes {
				t.Run(app+"/"+pol.name+"/"+reg.name, func(t *testing.T) {
					res, err := Run(Config{App: app, Packets: 60, Seed: 7,
						FaultScale: 2e3, CycleTime: 0.5,
						Detection: cache.DetectionParity, Strikes: 2,
						Recovery: pol.pol, Regime: reg.reg})
					if err != nil {
						t.Fatal(err)
					}
					checkBreakdown(t, res)
				})
			}
		}
	}
}

// TestBreakdownTargetedPaths drives the attribution through the corners the
// matrix above can miss: the dynamic frequency controller's switch penalty,
// silent corruption with watchdog kills, ECC correction, sub-block
// recovery, and the pre-disabled bypass path.
func TestBreakdownTargetedPaths(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		check func(t *testing.T, res *Result)
	}{
		{
			name: "dynamic-freq-penalty",
			cfg: Config{App: "crc", Packets: 300, Seed: 11, FaultScale: 1e3,
				Dynamic: true, Detection: cache.DetectionParity, Strikes: 2,
				Recovery: RecoverDrop},
			check: func(t *testing.T, res *Result) {
				if res.Switches > 0 && res.Breakdown.FreqPenalty == 0 {
					t.Errorf("%d operating-point switches but zero freq-penalty bucket", res.Switches)
				}
			},
		},
		{
			name: "watchdog-burn",
			cfg: Config{App: "route", Packets: 200, Seed: 3, FaultScale: 5e3,
				CycleTime: 0.25, Recovery: RecoverDrop, WatchdogFactor: 50},
			check: nil, // watchdog-specific assertions live in TestBreakdownWatchdogBurn
		},
		{
			name: "ecc",
			cfg: Config{App: "md5", Packets: 80, Seed: 5, FaultScale: 2e3,
				CycleTime: 0.5, Detection: cache.DetectionECC, Strikes: 2,
				Recovery: RecoverDrop},
			check: func(t *testing.T, res *Result) {},
		},
		{
			name: "subblock",
			cfg: Config{App: "url", Packets: 80, Seed: 5, FaultScale: 2e3,
				CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
				Recovery: RecoverDrop, SubBlock: true},
			check: func(t *testing.T, res *Result) {},
		},
		{
			name: "predisable-bypass",
			cfg: Config{App: "route", Packets: 150, Seed: 5, FaultScale: 2e3,
				CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
				Recovery: RecoverDegrade, Regime: RegimePermanent, PreDisableFrac: 0.5},
			check: func(t *testing.T, res *Result) {
				// Bypass accesses go straight to L2/memory: the degraded
				// steady state must show up as backend stall, not recovery.
				if res.Recovery.Bypasses > 0 && res.Breakdown.L2 == 0 {
					t.Error("bypass accesses but zero L2 bucket")
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkBreakdown(t, res)
			if c.check != nil {
				c.check(t, res)
			}
		})
	}
}

// TestBreakdownWatchdogBurn pins the burn attribution at the engine level:
// the budget remainder a dying packet spins away goes to the recovery
// bucket (via engine.burned), while the instructions it actually executed
// stay in compute. The integration-level path (a trap death followed by
// burnWatchdog) uses the same two accumulators.
func TestBreakdownWatchdogBurn(t *testing.T) {
	eng, _ := newTestEngine(t)
	eng.beginPacket()
	eng.charge(10)
	// Dying at 10 of a 100-instruction budget spins the remaining 90 away:
	// the packet's core total reaches the budget, with only the executed 10
	// left in the compute share.
	eng.burnWatchdog(100)
	if eng.coreCycles() != 100 {
		t.Errorf("core = %g, want 100 (10 executed + 90 burned)", eng.coreCycles())
	}
	if eng.burned != 90 {
		t.Errorf("burned = %g, want 90", eng.burned)
	}
	if compute := eng.coreCycles() - eng.burned; compute != 10 {
		t.Errorf("compute share = %g, want 10", compute)
	}
	// A packet that exceeded its budget before dying has nothing left to
	// burn: its spent cycles are real compute.
	eng.beginPacket()
	eng.charge(60)
	eng.burnWatchdog(50)
	if eng.burned != 90 {
		t.Errorf("burnWatchdog past an exhausted budget changed burned to %g", eng.burned)
	}
	if eng.coreCycles() != 160 {
		t.Errorf("core = %g, want 160", eng.coreCycles())
	}
}

// TestBreakdownTelemetryFlush verifies the per-run flush of the cycles.*
// counter family: each counter holds the truncated value of the matching
// Result breakdown bucket, on a run where recovery and stall buckets are
// all nonzero.
func TestBreakdownTelemetryFlush(t *testing.T) {
	tel := telemetry.New()
	res, err := Run(Config{App: "route", Packets: 150, Seed: 7, FaultScale: 5e3,
		CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
		Recovery: RecoverDrop, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, res)
	if res.Breakdown.Recovery == 0 {
		t.Fatal("config produced no recovery cycles; flush check needs a faulty run")
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{telemetry.CtrCyclesCompute, res.Breakdown.Compute},
		{telemetry.CtrCyclesL1DStall, res.Breakdown.L1D},
		{telemetry.CtrCyclesL1IStall, res.Breakdown.L1I},
		{telemetry.CtrCyclesL2Stall, res.Breakdown.L2},
		{telemetry.CtrCyclesMemStall, res.Breakdown.Mem},
		{telemetry.CtrCyclesRecovery, res.Breakdown.Recovery},
		{telemetry.CtrCyclesFreqPenalty, res.Breakdown.FreqPenalty},
	} {
		if got := tel.Registry.Counter(c.name).Load(); got != uint64(c.want) {
			t.Errorf("counter %s = %d, want %d", c.name, got, uint64(c.want))
		}
	}
}

// TestBreakdownRecoveryAttribution pins that fault recovery actually lands
// in the recovery bucket: a faulty parity run must report recovery cycles,
// and a fault-free run of the same configuration must report none.
func TestBreakdownRecoveryAttribution(t *testing.T) {
	base := Config{App: "route", Packets: 150, Seed: 7, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop}

	clean := base
	clean.FaultScale = 1e-12 // effectively fault-free
	cres, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, cres)
	if cres.Breakdown.Recovery != 0 {
		t.Errorf("fault-free run charged %g recovery cycles", cres.Breakdown.Recovery)
	}

	faulty := base
	faulty.FaultScale = 5e3
	fres, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	checkBreakdown(t, fres)
	if fres.Recovery.Retries > 0 && fres.Breakdown.Recovery == 0 {
		t.Errorf("%d retries but zero recovery cycles", fres.Recovery.Retries)
	}
	if fres.Breakdown.Recovery >= fres.Cycles {
		t.Errorf("recovery bucket %g swallowed the whole run (%g cycles)",
			fres.Breakdown.Recovery, fres.Cycles)
	}
}
