package clumsy

import (
	"math"
	"strings"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/metrics"
)

// run is a test helper with small packet counts.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func TestAllAppsRunCleanAtBaseline(t *testing.T) {
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := run(t, Config{App: name, Packets: 120, Seed: 1, FaultScale: 1e-9})
			if res.Report.Fatal {
				t.Fatalf("%s died at negligible fault rate: %v", name, res.FatalErr)
			}
			if res.Report.PacketsWith != 0 {
				t.Fatalf("%s has %d erroneous packets at negligible fault rate", name, res.Report.PacketsWith)
			}
			if res.Fallibility() != 1 {
				t.Fatalf("%s fallibility = %v", name, res.Fallibility())
			}
			if res.Instrs == 0 || res.Cycles <= 0 || res.Delay <= 0 {
				t.Fatalf("%s produced empty cost figures: %+v", name, res)
			}
			if res.L1DStats.Accesses() == 0 {
				t.Fatalf("%s made no data accesses", name)
			}
			if res.Energy.Total() <= 0 {
				t.Fatalf("%s energy = %v", name, res.Energy.Total())
			}
		})
	}
}

func TestGoldenAndCleanRunsAgree(t *testing.T) {
	// With the injector effectively off, golden and clumsy runs at Cr=1
	// must match cycle for cycle.
	res := run(t, Config{App: "route", Packets: 100, Seed: 2, FaultScale: 1e-12})
	if res.Cycles != res.GoldenCycles {
		t.Fatalf("cycles %v != golden %v", res.Cycles, res.GoldenCycles)
	}
	if res.Instrs != res.GoldenInstrs {
		t.Fatalf("instrs %v != golden %v", res.Instrs, res.GoldenInstrs)
	}
}

func TestOverclockingReducesDelayAndEnergy(t *testing.T) {
	base := run(t, Config{App: "tl", Packets: 200, Seed: 3, FaultScale: 1e-9, CycleTime: 1})
	fast := run(t, Config{App: "tl", Packets: 200, Seed: 3, FaultScale: 1e-9, CycleTime: 0.5})
	if fast.Delay >= base.Delay {
		t.Fatalf("delay at Cr=0.5 (%v) should beat Cr=1 (%v)", fast.Delay, base.Delay)
	}
	if fast.Energy.L1D >= base.Energy.L1D {
		t.Fatalf("L1D energy at Cr=0.5 (%v) should beat Cr=1 (%v)", fast.Energy.L1D, base.Energy.L1D)
	}
}

func TestHighFaultRateCausesErrors(t *testing.T) {
	res := run(t, Config{App: "route", Packets: 300, Seed: 4, FaultScale: 3e3, CycleTime: 0.25})
	if res.Report.PacketsWith == 0 && !res.Report.Fatal {
		t.Fatal("expected application errors at amplified fault rate")
	}
	if res.Fallibility() <= 1 && !res.Report.Fatal {
		t.Fatalf("fallibility = %v", res.Fallibility())
	}
}

func TestParityDetectionSuppressesErrors(t *testing.T) {
	// Faults in the data plane only, at a rate hot enough for errors but
	// cool enough that parity recovery keeps the run alive.
	noDet := run(t, Config{App: "route", Packets: 400, Seed: 5, FaultScale: 20, CycleTime: 0.25,
		Planes: PlaneData, Detection: cache.DetectionNone})
	parity := run(t, Config{App: "route", Packets: 400, Seed: 5, FaultScale: 20, CycleTime: 0.25,
		Planes: PlaneData, Detection: cache.DetectionParity, Strikes: 2})
	nd := noDet.Report.PacketsWith
	if noDet.Report.Fatal {
		nd = noDet.Report.GoldenPackets // died: worst case
	}
	if parity.Report.Fatal {
		t.Fatalf("parity run died: %v", parity.FatalErr)
	}
	if parity.Report.PacketsWith >= nd && nd > 0 {
		t.Fatalf("parity (%d errors) should improve on no detection (%d)", parity.Report.PacketsWith, nd)
	}
	if parity.Recovery.ParityErrors == 0 {
		t.Fatal("parity run saw no parity errors at amplified rate")
	}
}

func TestControlPlaneOnlyInjection(t *testing.T) {
	res := run(t, Config{App: "route", Packets: 150, Seed: 6, FaultScale: 5e3, CycleTime: 0.25,
		Planes: PlaneControl})
	// Faults in setup corrupt tables; data plane itself is clean, so every
	// error traces back to initialization state.
	if res.Recovery.FaultsOnRead+res.Recovery.FaultsOnWrite == 0 {
		t.Fatal("no faults injected during control plane")
	}
	// The data plane must have been clean: no faults counted there beyond
	// the setup ones (the counter freezes when the injector is disabled).
	insSetup := res.Recovery.FaultsOnRead + res.Recovery.FaultsOnWrite
	_ = insSetup // counters cover the whole run; presence checked above
}

func TestDynamicSchemeSwitches(t *testing.T) {
	res := run(t, Config{App: "route", Packets: 1200, Seed: 7, FaultScale: 10,
		Dynamic: true, Detection: cache.DetectionParity, Strikes: 2})
	if res.LevelPackets == nil {
		t.Fatal("dynamic run did not record level packets")
	}
	if res.Switches == 0 {
		t.Fatal("dynamic scheme never changed frequency over 8 epochs")
	}
	var total uint64
	for _, n := range res.LevelPackets {
		total += n
	}
	if total != uint64(res.Report.Processed) {
		t.Fatalf("level packets %d != processed %d", total, res.Report.Processed)
	}
}

func TestEDFComputation(t *testing.T) {
	res := run(t, Config{App: "crc", Packets: 80, Seed: 8, FaultScale: 1e-9})
	e := metrics.DefaultExponents()
	if res.EDF(e) <= 0 || res.GoldenEDF(e) <= 0 {
		t.Fatal("EDF products must be positive")
	}
	// Clean run at Cr=1: clumsy EDF equals golden EDF.
	ratio := res.EDF(e) / res.GoldenEDF(e)
	if ratio < 0.999 || ratio > 1.001 {
		t.Fatalf("clean baseline EDF ratio = %v, want 1", ratio)
	}
}

func TestUnknownAppRejected(t *testing.T) {
	if _, err := Run(Config{App: "nosuch", Packets: 10}); err == nil {
		t.Fatal("unknown application should fail")
	}
}

// TestRejectsConfigsTheModelCannotSimulate: every faulty pass refuses a
// field outside the model's range and names it, while the boundary values
// pass. Run and GoldenCache.Run return the check's error itself, before
// any golden pass: the cases share one GoldenCache, which must hold no
// pass after them, and a valid run after them.
func TestRejectsConfigsTheModelCannotSimulate(t *testing.T) {
	base := Config{App: "crc", Packets: 40, Seed: 3, Detection: cache.DetectionParity}
	tr, err := generate(base.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	var gc GoldenCache
	for _, tc := range []struct {
		set   func(*Config)
		field string
	}{
		{func(c *Config) { c.Strikes = 4 }, "Strikes"},
		{func(c *Config) { c.Strikes = -1 }, "Strikes"},
		{func(c *Config) { c.CycleTime = -0.5 }, "CycleTime"},
		{func(c *Config) { c.CycleTime = 1.5 }, "CycleTime"},
		{func(c *Config) { c.CycleTime = math.NaN() }, "CycleTime"},
		{func(c *Config) { c.FaultScale = -2 }, "FaultScale"},
		{func(c *Config) { c.WatchdogFactor = -1 }, "WatchdogFactor"},
		{func(c *Config) { c.MaxDropRate = -0.1 }, "MaxDropRate"},
		{func(c *Config) { c.PreDisableFrac = -0.1 }, "PreDisableFrac"},
		{func(c *Config) { c.PreDisableFrac = 1.5 }, "PreDisableFrac"},
		{func(c *Config) { c.StateStrikes = -1 }, "StateStrikes"},
		{func(c *Config) { c.EpochPackets = 10 }, "EpochPackets"},
		{func(c *Config) { c.Dynamic, c.MinDwellEpochs = true, 2 }, "MinDwellEpochs"},
		{func(c *Config) { c.LineDisableStrikes = 2 }, "LineDisableStrikes"},
		{func(c *Config) { c.Recovery, c.LineDisableWindow = RecoverDegrade, 512 }, "LineDisableWindow"},
		{func(c *Config) { c.SpaceBytes = 16 << 20 }, "SpaceBytes"},
	} {
		cfg := base
		tc.set(&cfg)
		_, errRun := Run(cfg)
		_, errShared := gc.Run(cfg)
		_, errCal := Calibrate(cfg, tr)
		_, errNode := OpenNode(cfg, tr, cal)
		want := cfg.withDefaults().check()
		if want == nil || !strings.Contains(want.Error(), tc.field) {
			t.Errorf("%s case: check returned %v, which does not name it", tc.field, want)
			continue
		}
		for i, err := range []error{errRun, errShared, errCal, errNode} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s case, path %d (Run, GoldenCache.Run, Calibrate, OpenNode): error %v, want the check's %v", tc.field, i, err, want)
			}
		}
	}
	if n := len(gc.passes); n != 0 {
		t.Errorf("rejected configurations left %d golden passes in the cache, want 0", n)
	}
	shared, err := gc.Run(base)
	if err != nil {
		t.Fatalf("valid config after rejected sharers of its golden pass: %v", err)
	}
	if fresh := run(t, base); shared.Cycles != fresh.Cycles || shared.GoldenCycles != fresh.GoldenCycles {
		t.Fatalf("shared run %v/%v cycles, fresh run %v/%v", shared.Cycles, shared.GoldenCycles, fresh.Cycles, fresh.GoldenCycles)
	}
	for _, ok := range []Config{
		{Strikes: 1, CycleTime: 1, PreDisableFrac: 0},
		{Strikes: 3, CycleTime: 1e-3, PreDisableFrac: 1},
	} {
		if err := ok.withDefaults().check(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3, CycleTime: 0.25})
	b := run(t, Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3, CycleTime: 0.25})
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.Report.PacketsWith != b.Report.PacketsWith {
		t.Fatalf("identical configs diverge: %v/%v, %v/%v, %v/%v",
			a.Cycles, b.Cycles, a.Instrs, b.Instrs, a.Report.PacketsWith, b.Report.PacketsWith)
	}
}
