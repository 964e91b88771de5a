package clumsy

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// fatalProneConfig is a configuration whose abort-policy runs reliably die
// mid-trace: a tight watchdog budget (0.7x the golden run's worst packet)
// over paper-rate faults. The applications deflect corrupted pointers
// defensively, so wild reads almost never trap; what kills real runs is the
// watchdog — and under a tight budget the trace's heaviest packets
// genuinely exceed it, driving the same ErrWatchdog fatal path a corrupted
// loop bound would.
func fatalProneConfig() Config {
	return Config{App: "route", Packets: 200, FaultScale: 1, CycleTime: 0.25,
		Planes: PlaneData, WatchdogFactor: 0.7}
}

// findFatalSeed searches for a seed whose abort-policy run dies mid-trace
// (fatal during the data plane, after at least one completed packet), so
// the drop-policy tests have a deterministic fatal to contain.
func findFatalSeed(t *testing.T, base Config) (uint64, *Result) {
	t.Helper()
	base.Recovery = RecoverAbort
	for seed := uint64(1); seed <= 80; seed++ {
		base.Seed = seed
		res, err := Run(base)
		if err != nil {
			t.Fatalf("seed search: %v", err)
		}
		if res.FatalErr != nil && !res.SetupDied && res.Report.Processed > 0 {
			return seed, res
		}
	}
	t.Fatalf("no seed in 1..80 produced a mid-trace fatal for %+v", base)
	return 0, nil
}

// TestDropPolicyCompletesTrace is the headline acceptance test: a
// configuration that dies mid-trace under the abort policy completes the
// whole trace under drop-and-continue, with the fatal errors contained as
// packet drops.
func TestDropPolicyCompletesTrace(t *testing.T) {
	base := fatalProneConfig()
	seed, abort := findFatalSeed(t, base)

	base.Seed = seed
	base.Recovery = RecoverDrop
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.FatalErr != nil {
		t.Fatalf("drop policy must contain the fatal error, got: %v", res.FatalErr)
	}
	if res.Report.Dropped == 0 {
		t.Fatal("a run that aborts under the abort policy must drop packets under drop")
	}
	if got := res.Report.Processed + res.Report.Dropped; got != res.Report.GoldenPackets {
		t.Fatalf("attempted %d packets, want the full trace of %d", got, res.Report.GoldenPackets)
	}
	if res.Report.Fatal {
		t.Fatal("completed trace must not be marked fatal")
	}
	if res.Contained != res.Report.Dropped {
		t.Fatalf("contained %d != dropped %d", res.Contained, res.Report.Dropped)
	}
	if res.RestoredPages == 0 {
		t.Fatal("containment restored no pages; the checkpoint never fired")
	}
	if f := res.Fallibility(); f < 1 || f > 2 {
		t.Fatalf("fallibility %v out of [1,2]", f)
	}
	if dr := res.Report.DropRate(); dr <= 0 || dr >= 1 {
		t.Fatalf("drop rate %v out of (0,1)", dr)
	}
	// More packets completed than the aborted run managed.
	if res.Report.Processed <= abort.Report.Processed {
		t.Fatalf("drop processed %d, abort processed %d before dying",
			res.Report.Processed, abort.Report.Processed)
	}
}

// TestDropMatchesAbortWithoutFatals: on a run with no fatal errors the two
// policies must be indistinguishable — the checkpoint machinery (dirty-page
// tracking, per-packet sync and commit) must not perturb cycles, energy,
// instruction counts, or observations. This is the bit-identity guarantee
// that keeps the paper-fidelity outputs unchanged.
func TestDropMatchesAbortWithoutFatals(t *testing.T) {
	for _, app := range apps.Names() {
		cfg := Config{App: app, Packets: 100, Seed: 11, FaultScale: 1e-9, CycleTime: 0.5}
		abort, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recovery = RecoverDrop
		drop, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if abort.Cycles != drop.Cycles || abort.Instrs != drop.Instrs {
			t.Fatalf("%s: checkpointing perturbed the run: cycles %v/%v instrs %v/%v",
				app, abort.Cycles, drop.Cycles, abort.Instrs, drop.Instrs)
		}
		if abort.Energy.Total() != drop.Energy.Total() {
			t.Fatalf("%s: energy %v != %v", app, abort.Energy.Total(), drop.Energy.Total())
		}
		if abort.Report.PacketsWith != drop.Report.PacketsWith ||
			abort.Report.Processed != drop.Report.Processed || drop.Report.Dropped != 0 {
			t.Fatalf("%s: reports diverge: %+v vs %+v", app, abort.Report, drop.Report)
		}
	}
}

// playDataPlane runs one application's data plane fault-free and returns
// its recorder. With scribble set, the post-setup state is checkpointed
// (space pages plus cache snapshot), then trashed two ways — junk written
// straight into the backing space, and junk stored through the cache
// hierarchy so lines dirty, evict, and write back — and finally restored.
// If the restore is faithful the observations must match the unscribbled
// run byte for byte.
func playDataPlane(t *testing.T, appName string, scribble bool) *metrics.Recorder {
	t.Helper()
	app, err := apps.New(appName)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(60, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	space := simmem.NewSpace(autoSpaceBytes(trace))
	injector := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1).Fork(0xfa17), 32)
	injector.SetEnabled(false)
	h, err := cache.NewHierarchy(space, injector, cache.DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(h)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	ctx := &apps.Context{Space: space, Mem: dataMemory{eng, h.L1D}, Rec: rec, Exec: eng}
	if err := app.Setup(ctx, trace); err != nil {
		t.Fatalf("%s setup: %v", appName, err)
	}
	rec.BeginPackets()

	if scribble {
		ckpt := space.NewCheckpoint()
		defer ckpt.Release()
		cs := h.Snapshot(nil)

		junk := make([]byte, int(space.Brk())-int(simmem.PageBase))
		rng := fault.NewRNG(0xbad)
		for i := range junk {
			junk[i] = byte(rng.Uint64())
		}
		if err := space.WriteBlock(simmem.PageBase, junk); err != nil {
			t.Fatal(err)
		}
		// Stores through the hierarchy corrupt cached lines too and force
		// dirty evictions into the space.
		for off := simmem.Addr(0); off < simmem.Addr(len(junk)); off += 4 {
			if err := h.L1D.Store32(simmem.PageBase+off, uint32(rng.Uint64())); err != nil {
				t.Fatal(err)
			}
		}
		if pages := ckpt.Restore(); pages == 0 {
			t.Fatal("scribble dirtied no pages")
		}
		h.RestoreSnapshot(cs)
	}

	for i := range trace.Packets {
		p := &trace.Packets[i]
		buf, err := dmaPacket(h, p)
		if err != nil {
			t.Fatal(err)
		}
		eng.beginPacket()
		if err := app.Process(ctx, p, buf); err != nil {
			t.Fatalf("%s packet %d: %v", appName, i, err)
		}
		rec.EndPacket()
	}
	return rec
}

// TestRestoreGoldenEquivalence proves the restore is exact: after
// scribbling over the whole post-setup memory image and rolling it back,
// every application produces per-packet observations identical to a run
// that was never corrupted.
func TestRestoreGoldenEquivalence(t *testing.T) {
	names := append(apps.Names(), "adpcm")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := playDataPlane(t, name, false)
			got := playDataPlane(t, name, true)
			rep := metrics.Compare(ref, got)
			if rep.InitMismatch {
				t.Fatal("control-plane observations diverged (setup ran before the scribble)")
			}
			if rep.Processed != len(ref.Packets) || rep.Fatal {
				t.Fatalf("restored run attempted %d of %d packets", rep.Processed, len(ref.Packets))
			}
			if rep.PacketsWith != 0 {
				t.Fatalf("restored state diverged on %d of %d packets: %+v",
					rep.PacketsWith, rep.Processed, rep.PerStructure)
			}
		})
	}
}

// TestMaxDropRateAborts: the graceful-degradation threshold turns a
// containable run back into a fatal one once the drop fraction exceeds it.
func TestMaxDropRateAborts(t *testing.T) {
	base := fatalProneConfig()
	seed, _ := findFatalSeed(t, base)

	base.Seed = seed
	base.Recovery = RecoverDrop
	base.MaxDropRate = 1e-9 // any drop at all exceeds this
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.FatalErr, ErrDropRateExceeded) {
		t.Fatalf("FatalErr = %v, want ErrDropRateExceeded", res.FatalErr)
	}
	if !res.Report.Fatal {
		t.Fatal("exceeding the threshold must cut the run short")
	}
	if res.Report.Dropped == 0 {
		t.Fatal("the threshold can only trip after a drop")
	}
}

// TestDropDeterminism: containment is part of the simulation, so two runs
// of the same configuration must agree in every figure.
func TestDropDeterminism(t *testing.T) {
	cfg := Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3, CycleTime: 0.25,
		Recovery: RecoverDrop}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs ||
		a.Report.Dropped != b.Report.Dropped || a.Contained != b.Contained ||
		a.RestoredPages != b.RestoredPages {
		t.Fatalf("identical drop configs diverge:\n%+v\n%+v", a.Report, b.Report)
	}
}

// TestSetupDeathAlwaysAborts: a fatal error during the control plane ends
// the run under either policy — there is no checkpoint to restore before
// Setup has completed. The death is driven deterministically through the
// panic-isolation path (the injected-fault fatal paths are exercised by the
// watchdog tests above; the containment plumbing downstream of isFatal is
// identical).
func TestSetupDeathAlwaysAborts(t *testing.T) {
	tr := panickyTrace(t, 40)
	for _, policy := range []RecoveryPolicy{RecoverAbort, RecoverDrop} {
		armPanicky(2, 0, true) // instance 2 = the faulty run, panics in Setup
		res, err := RunWithTrace(Config{App: "panicky", Seed: 3, FaultScale: 1e-12,
			Recovery: policy, MaxDropRate: 0.5}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.SetupDied {
			t.Fatalf("%v: setup panic not recorded as a setup death", policy)
		}
		if res.FatalErr == nil {
			t.Fatalf("%v: SetupDied with nil FatalErr", policy)
		}
		if res.Report.Processed != 0 || res.Report.Dropped != 0 {
			t.Fatalf("%v: setup death processed %d / dropped %d packets",
				policy, res.Report.Processed, res.Report.Dropped)
		}
		if res.Contained != 0 || res.RestoredPages != 0 {
			t.Fatalf("%v: setup death must not be contained: %d / %d",
				policy, res.Contained, res.RestoredPages)
		}
		if res.Fallibility() != 2 {
			t.Fatalf("%v: fallibility = %v, want maximal 2", policy, res.Fallibility())
		}
		if res.Delay != res.GoldenDelay {
			t.Fatalf("%v: delay %v, want golden %v (no packets to charge)",
				policy, res.Delay, res.GoldenDelay)
		}
	}
}

// TestSubBlockDynamicRecovery covers the interaction of the two extension
// mechanisms with containment enabled: sub-block (per-word) recovery under
// the dynamic frequency controller, with fatal errors contained rather
// than aborting. The controller must keep adapting across contained drops.
func TestSubBlockDynamicRecovery(t *testing.T) {
	cfg := Config{App: "route", Packets: 1200, Seed: 7, FaultScale: 25,
		Dynamic: true, SubBlock: true, Detection: cache.DetectionParity, Strikes: 2,
		Recovery: RecoverDrop}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recovery.Recoveries == 0 {
		t.Fatal("sub-block run saw no recoveries at 25x")
	}
	if a.Switches == 0 {
		t.Fatal("dynamic controller never switched")
	}
	if a.FatalErr != nil {
		t.Fatalf("containment should keep the dynamic run alive: %v", a.FatalErr)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Switches != b.Switches || a.Report.Dropped != b.Report.Dropped {
		t.Fatalf("dynamic+subblock+drop diverges across runs: %v/%v, %d/%d, %d/%d",
			a.Cycles, b.Cycles, a.Switches, b.Switches, a.Report.Dropped, b.Report.Dropped)
	}
}

// --- panic containment -------------------------------------------------

// panickyApp is a synthetic workload whose Process panics at a chosen
// packet index — but only on the armed instance, so the golden run (the
// first instance a RunWithTrace creates) stays clean while the faulty run
// (the second) panics. It also implements ScratchResetter so the tests can
// observe the containment hook firing.
type panickyApp struct {
	me   int
	data simmem.Addr
	idx  int
}

var panicky struct {
	mu         sync.Mutex
	instances  int
	armed      int // instance number whose Process panics (0 = none)
	armedSetup int // instance number whose Setup panics (0 = none)
	at         int // packet index at which the armed instance panics
	last       *panickyApp
	resets     int
}

func init() {
	apps.Register("panicky", func() apps.App {
		panicky.mu.Lock()
		defer panicky.mu.Unlock()
		panicky.instances++
		a := &panickyApp{me: panicky.instances}
		panicky.last = a
		return a
	})
}

// armPanicky resets the instance counter and arms the nth instance to
// panic at packet index at (or during Setup when inSetup is set).
func armPanicky(n, at int, inSetup bool) {
	panicky.mu.Lock()
	defer panicky.mu.Unlock()
	panicky.instances = 0
	panicky.resets = 0
	panicky.at = at
	if inSetup {
		panicky.armedSetup = n
		panicky.armed = 0
	} else {
		panicky.armed = n
		panicky.armedSetup = 0
	}
}

func (a *panickyApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{Packets: packets, Flows: 8, PayloadMin: 16, PayloadMax: 32, Seed: seed}
}

func (a *panickyApp) Setup(ctx *apps.Context, tr *packet.Trace) error {
	panicky.mu.Lock()
	boom := a.me == panicky.armedSetup
	panicky.mu.Unlock()
	if boom {
		panic("panicky: synthetic setup panic")
	}
	addr, err := ctx.Space.Alloc(64, 4)
	if err != nil {
		return err
	}
	a.data = addr
	if err := ctx.Mem.Store32(addr, 0x1234); err != nil {
		return err
	}
	ctx.Rec.Observe("panicky-init", 0x1234)
	return nil
}

func (a *panickyApp) Process(ctx *apps.Context, p *packet.Packet, buf simmem.Addr) error {
	i := a.idx
	a.idx++
	if err := ctx.Exec.Step(0, 8); err != nil {
		return err
	}
	v, err := ctx.Mem.Load8(buf)
	if err != nil {
		return err
	}
	ctx.Rec.Observe("panicky-byte", uint64(v))
	panicky.mu.Lock()
	boom := a.me == panicky.armed && i == panicky.at
	panicky.mu.Unlock()
	if boom {
		panic(fmt.Sprintf("panicky: synthetic panic at packet %d", i))
	}
	return nil
}

func (a *panickyApp) ResetScratch() {
	panicky.mu.Lock()
	panicky.resets++
	panicky.mu.Unlock()
}

// panickyTrace builds the fixed trace the panic tests replay, so instance
// numbering is deterministic (RunWithTrace creates exactly two instances:
// golden first, faulty second).
func panickyTrace(t *testing.T, packets int) *packet.Trace {
	t.Helper()
	tr, err := packet.Generate((&panickyApp{}).TraceConfig(packets, 3))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPanicAbortsUnderAbortPolicy: a Go panic in the data plane surfaces
// as an ErrAppPanic fatal, not a process crash.
func TestPanicAbortsUnderAbortPolicy(t *testing.T) {
	tr := panickyTrace(t, 30)
	armPanicky(2, 10, false) // instance 2 = the faulty run
	res, err := RunWithTrace(Config{App: "panicky", Seed: 3, FaultScale: 1e-12}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.FatalErr, ErrAppPanic) {
		t.Fatalf("FatalErr = %v, want ErrAppPanic", res.FatalErr)
	}
	if !res.Report.Fatal || res.Report.Processed != 10 {
		t.Fatalf("report = %+v, want fatal after 10 packets", res.Report)
	}
}

// TestPanicContainedUnderDropPolicy: the same panic under drop policy is
// contained — the packet is dropped, the ScratchResetter hook fires, and
// the rest of the trace completes cleanly.
func TestPanicContainedUnderDropPolicy(t *testing.T) {
	tr := panickyTrace(t, 30)
	armPanicky(2, 10, false)
	res, err := RunWithTrace(Config{App: "panicky", Seed: 3, FaultScale: 1e-12,
		Recovery: RecoverDrop}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FatalErr != nil {
		t.Fatalf("panic must be contained: %v", res.FatalErr)
	}
	if res.Report.Dropped != 1 || res.Contained != 1 {
		t.Fatalf("dropped %d contained %d, want exactly the panicking packet",
			res.Report.Dropped, res.Contained)
	}
	if res.Report.Processed != 29 {
		t.Fatalf("processed %d of 30, want 29", res.Report.Processed)
	}
	if res.Report.PacketsWith != 0 {
		t.Fatalf("%d packets diverged after the restore", res.Report.PacketsWith)
	}
	panicky.mu.Lock()
	resets := panicky.resets
	panicky.mu.Unlock()
	if resets != 1 {
		t.Fatalf("ResetScratch fired %d times, want 1", resets)
	}
}

// TestPanicInSetupAlwaysFatal: a setup panic has no checkpoint to fall
// back on, so even the drop policy reports it as a fatal setup death.
func TestPanicInSetupAlwaysFatal(t *testing.T) {
	tr := panickyTrace(t, 20)
	armPanicky(2, 0, true)
	res, err := RunWithTrace(Config{App: "panicky", Seed: 3, FaultScale: 1e-12,
		Recovery: RecoverDrop}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.FatalErr, ErrAppPanic) || !res.SetupDied {
		t.Fatalf("FatalErr = %v setupDied = %v, want setup panic", res.FatalErr, res.SetupDied)
	}
	if res.Fallibility() != 2 {
		t.Fatalf("fallibility = %v, want 2", res.Fallibility())
	}
}

// TestParseRecoveryPolicy covers the CLI spelling round-trip.
func TestParseRecoveryPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RecoveryPolicy
		ok   bool
	}{
		{"", RecoverAbort, true},
		{"abort", RecoverAbort, true},
		{"drop", RecoverDrop, true},
		{"continue", RecoverAbort, false},
	} {
		got, err := ParseRecoveryPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseRecoveryPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if RecoverAbort.String() != "abort" || RecoverDrop.String() != "drop" {
		t.Error("policy String() spellings changed")
	}
}

// FuzzContainment drives the drop policy across seeds, fault scales, and
// applications, checking the containment invariants: the simulator never
// errors, an unbounded drop policy always completes the trace, and the
// derived rates stay in range.
func FuzzContainment(f *testing.F) {
	f.Add(uint64(1), uint32(5000), uint8(0))
	f.Add(uint64(7), uint32(100), uint8(2))
	f.Add(uint64(42), uint32(50000), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, scaleMilli uint32, appIdx uint8) {
		names := apps.Names()
		app := names[int(appIdx)%len(names)]
		scale := float64(scaleMilli%200000)/10 + 1e-6
		cfg := Config{
			App: app, Packets: 30, Seed: seed%1000 + 1,
			CycleTime: 0.25, FaultScale: scale, Planes: PlaneData,
			WatchdogFactor: 50, Recovery: RecoverDrop,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%+v): %v", cfg, err)
		}
		attempted := res.Report.Processed + res.Report.Dropped
		if res.FatalErr != nil {
			t.Fatalf("unbounded drop policy ended fatally: %v", res.FatalErr)
		}
		if attempted != res.Report.GoldenPackets {
			t.Fatalf("attempted %d of %d", attempted, res.Report.GoldenPackets)
		}
		if f := res.Fallibility(); f < 1 || f > 2 {
			t.Fatalf("fallibility %v", f)
		}
		if dr := res.Report.DropRate(); dr < 0 || dr > 1 {
			t.Fatalf("drop rate %v", dr)
		}
		if res.Report.Dropped == 0 && (res.Contained != 0 || res.RestoredPages != 0) {
			t.Fatalf("containment counters nonzero without drops: %+v", res)
		}
		if res.Contained != res.Report.Dropped {
			t.Fatalf("contained %d != dropped %d", res.Contained, res.Report.Dropped)
		}
	})
}
