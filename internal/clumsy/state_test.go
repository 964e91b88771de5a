package clumsy

import (
	"errors"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
	"clumsy/internal/workload"
)

// stateRig is a data plane with a live flow-state guard and no fault
// injection: corruption is seeded explicitly, so each rung of the recovery
// ladder can be driven deterministically.
type stateRig struct {
	st    *simmem.StateTable
	guard *stateGuard
	ctx   *apps.Context
	h     *cache.Hierarchy
	space *simmem.Space
}

func newStateRig(t *testing.T, strikes int) *stateRig {
	t.Helper()
	app, err := apps.New("fw")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(16, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	space := simmem.NewSpace(autoSpaceBytes(trace))
	proc := fault.NewInjector(fault.NewModel(1), fault.NewRNG(7).Fork(0xfa17), 32)
	proc.SetEnabled(false)
	h, err := cache.NewHierarchy(space, proc, cache.DetectionParity, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &apps.Context{Space: space, Mem: dataMemory{eng, h.L1D}, Rec: metrics.NewRecorder(), Exec: eng}
	if err := app.Setup(ctx, trace); err != nil {
		t.Fatalf("setup: %v", err)
	}
	sa := app.(apps.StatefulApp)
	st := sa.StateTable()
	guard := newStateGuard(st, h, nil, eng, Config{StateStrikes: strikes})
	st.CommitShadow()
	return &stateRig{st: st, guard: guard, ctx: ctx, h: h, space: space}
}

// populate writes a golden record through the charged path and commits the
// packet boundary.
func (r *stateRig) populate(t *testing.T, idx int, vals []uint32) {
	t.Helper()
	for w, v := range vals {
		if err := r.st.StoreField(r.ctx.Mem, idx, w, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.st.Seal(r.ctx.Mem, idx); err != nil {
		t.Fatal(err)
	}
	r.st.CommitShadow()
}

// corrupt DMA-writes the record's golden image with one payload bit
// flipped, so the next verified read must take the ladder. The write is
// coherent so the seeded corruption stays surgical: a plain DMA here would
// also discard neighbouring records' unwritten stores sharing a cache
// line, seeding corruption the test did not ask for.
func (r *stateRig) corrupt(t *testing.T, idx int) {
	t.Helper()
	buf := make([]byte, r.st.RecordBytes())
	r.st.EncodeShadow(idx, buf)
	buf[0] ^= 0x10
	if err := r.h.CoherentDMA(r.st.RecordAddr(idx), buf); err != nil {
		t.Fatal(err)
	}
}

// storedImage reads the record's bytes as stored in the backing space.
func (r *stateRig) storedImage(t *testing.T, idx int) []byte {
	t.Helper()
	img := make([]byte, r.st.RecordBytes())
	for i := range img {
		v, err := r.space.Load8(r.st.RecordAddr(idx) + simmem.Addr(i))
		if err != nil {
			t.Fatal(err)
		}
		img[i] = v
	}
	return img
}

// TestStateLadderEvictRebuildExhaust drives one record through every rung
// of the recovery ladder: strike 1 evicts to a clean empty record, strike
// 2 rebuilds the exact golden bytes from the shadow, and the final strike
// declares the run's state unrecoverable.
func TestStateLadderEvictRebuildExhaust(t *testing.T) {
	r := newStateRig(t, 3)
	const idx = 9
	vals := []uint32{0x0a000001, 3, 1500, 60, 2}

	// Strike 1: evict. The record comes back empty and verified, and the
	// golden shadow is zeroed with it.
	r.populate(t, idx, vals)
	r.corrupt(t, idx)
	words, err := r.st.Lookup(r.ctx.Mem, idx)
	if err != nil {
		t.Fatalf("lookup through eviction: %v", err)
	}
	for w, v := range words {
		if v != 0 {
			t.Errorf("evicted word %d = %#x, want 0", w, v)
		}
	}
	if r.st.ShadowWord(idx, 0) != 0 {
		t.Error("eviction did not zero the golden shadow")
	}
	if r.guard.evictions != 1 || r.guard.rebuilds != 0 {
		t.Errorf("after strike 1: evictions=%d rebuilds=%d, want 1/0", r.guard.evictions, r.guard.rebuilds)
	}
	r.st.CommitShadow()

	// Strike 2: rebuild. The stored bytes afterwards are exactly the
	// golden shadow image — the golden-equivalence contract.
	r.populate(t, idx, vals)
	r.corrupt(t, idx)
	words, err = r.st.Lookup(r.ctx.Mem, idx)
	if err != nil {
		t.Fatalf("lookup through rebuild: %v", err)
	}
	for w, v := range vals {
		if words[w] != v {
			t.Errorf("rebuilt word %d = %#x, want golden %#x", w, words[w], v)
		}
	}
	golden := make([]byte, r.st.RecordBytes())
	r.st.EncodeShadow(idx, golden)
	stored := r.storedImage(t, idx)
	for i := range golden {
		if stored[i] != golden[i] {
			t.Fatalf("stored byte %d = %#x, golden image %#x: rebuild is not an exact restore", i, stored[i], golden[i])
		}
	}
	if r.guard.evictions != 1 || r.guard.rebuilds != 1 {
		t.Errorf("after strike 2: evictions=%d rebuilds=%d, want 1/1", r.guard.evictions, r.guard.rebuilds)
	}
	r.st.CommitShadow()

	// Strike 3 exhausts the budget: unrecoverable.
	r.corrupt(t, idx)
	if _, err := r.st.Lookup(r.ctx.Mem, idx); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("exhausted ladder returned %v, want ErrStateCorrupt", err)
	}
	if r.guard.detected != 3 {
		t.Errorf("detected = %d, want 3", r.guard.detected)
	}
}

// TestScrubDetectsLatentCorruption seeds corruption in a record no lookup
// touches and shows the periodic scrub pass alone finds and repairs it.
func TestScrubDetectsLatentCorruption(t *testing.T) {
	r := newStateRig(t, 0) // default strike budget
	const idx = 3
	r.populate(t, idx, []uint32{0x0a0000ff, 1, 64, 60, 1})
	r.corrupt(t, idx)
	if r.guard.detected != 0 {
		t.Fatal("corruption detected before any read; the seed leaked")
	}
	if err := r.guard.scrubPass(r.ctx.Mem, 0); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if r.guard.detected != 1 || r.guard.evictions != 1 {
		t.Errorf("scrub found %d mismatches, evicted %d; want 1/1", r.guard.detected, r.guard.evictions)
	}
	if r.guard.scrubPasses != 1 {
		t.Errorf("scrubPasses = %d, want 1", r.guard.scrubPasses)
	}
	// The repaired table is fully verifiable: a second scrub is clean.
	if err := r.guard.scrubPass(r.ctx.Mem, 1); err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if r.guard.detected != 1 {
		t.Errorf("second scrub re-detected (%d total); repair did not stick", r.guard.detected)
	}
}

// TestScrubInterval pins the scrub cadence knob: default, custom, and
// disabled.
func TestScrubInterval(t *testing.T) {
	r := newStateRig(t, 0)
	if r.guard.interval != DefaultScrubInterval {
		t.Errorf("zero config interval = %d, want default %d", r.guard.interval, DefaultScrubInterval)
	}
	if !r.guard.scrubDue(DefaultScrubInterval) || r.guard.scrubDue(DefaultScrubInterval-1) {
		t.Error("scrubDue cadence is off at the default interval")
	}
	g := newStateGuard(r.st, r.h, nil, r.guard.eng, Config{ScrubInterval: -1})
	if g.scrubDue(64) || g.scrubDue(1) {
		t.Error("negative ScrubInterval did not disable scrubbing")
	}
	g = newStateGuard(r.st, r.h, nil, r.guard.eng, Config{ScrubInterval: 7})
	if !g.scrubDue(14) || g.scrubDue(15) {
		t.Error("custom ScrubInterval cadence is off")
	}
}

// TestStateIntegrityAcceptance is the PR's acceptance bar: injected
// flow-table corruption under the burst and permanent regimes is detected
// with zero undetected divergence at the default scrub interval, for both
// stateful applications.
func TestStateIntegrityAcceptance(t *testing.T) {
	for _, app := range []string{"fw", "flowtrack"} {
		for _, regime := range []FaultRegime{RegimeBurst, RegimePermanent} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{
					App: app, Packets: 300, Seed: seed, CycleTime: 0.5,
					Detection: cache.DetectionParity, Strikes: 2,
					FaultScale: 25, Regime: regime, Recovery: RecoverDrop,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", app, regime, seed, err)
				}
				if res.StateUndetected != 0 {
					t.Errorf("%s/%s seed %d: %d diverged records passed checksum verification (silent corruption)",
						app, regime, seed, res.StateUndetected)
				}
				if res.StateRecords == 0 {
					t.Errorf("%s/%s seed %d: no flow records reported; the guard never attached", app, regime, seed)
				}
			}
		}
	}
}

// TestStatefulAppsSurviveAdversarialWorkload runs both stateful apps under
// the hostile end of the workload-v2 substrate (flash crowd, malformed
// wire images, churn flood) with faults on, and requires the run to
// complete with charged cycles and without setup death.
func TestStatefulAppsSurviveAdversarialWorkload(t *testing.T) {
	spec := &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.3, Churn: 0.4}
	for _, app := range []string{"fw", "flowtrack"} {
		res, err := Run(Config{
			App: app, Packets: 400, Seed: 11, CycleTime: 0.5,
			Detection: cache.DetectionParity, Strikes: 2,
			FaultScale: 10, Regime: RegimeBurst, Recovery: RecoverDrop,
			Workload: spec,
		})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.SetupDied {
			t.Fatalf("%s: setup died under the adversarial workload", app)
		}
		if res.Report.Processed == 0 {
			t.Errorf("%s: no packets processed", app)
		}
		if res.GoldenInstrs == 0 {
			t.Errorf("%s: golden pass charged no instructions", app)
		}
	}
}
