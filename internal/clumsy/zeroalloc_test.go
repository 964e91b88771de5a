package clumsy

import (
	"fmt"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/packet"
)

// zeroallocRig drives a faulty node's steady-state packet step: an
// enabled fault process under parity detection, per-packet checkpoint
// commits and cache snapshots for the containing policies, and the
// line-disable ladder armed under degrade. It exists to pin the
// allocation behaviour of the per-packet hot loop. testing.AllocsPerRun
// divides mallocs by runs as integers, so the pin catches an allocation
// on every packet but not an amortised one: the arena DMA allocates a
// simulated page on its first write, about once per 4 KiB of packets, and
// under drop and degrade the first commit of that page allocates its
// shadow.
type zeroallocRig struct {
	trace *packet.Trace
	n     *Node
	next  int
}

// newZeroallocRig opens the node the way Run opens its faulty pass (arena
// DMA) for the given app, policy, and regime, with parity detection and a
// two-strike retry budget. Stateful apps get a short scrub interval, so
// the integrity ladder and the periodic scrub are inside the measured
// loop. The watchdog stays unarmed, faults are confined to the data plane,
// and the fault scale is moderate, so the defensive applications never
// die and every measured packet takes the success path (recovery stalls
// included).
func newZeroallocRig(t *testing.T, appName string, policy RecoveryPolicy, regime FaultRegime) *zeroallocRig {
	t.Helper()
	app, err := apps.New(appName)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := packet.Generate(app.TraceConfig(64, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	// ScrubInterval 16 puts several full scrub passes inside the
	// 100-packet measurement window, pinning the scrub loop too.
	cfg := Config{App: appName, Packets: len(trace.Packets), Seed: 7, FaultScale: 25, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, Planes: PlaneData,
		Recovery: policy, Regime: regime, ScrubInterval: 16}.withDefaults()
	n, err := openNode(cfg, trace, nodeOpts{inject: true, arena: true})
	if err != nil {
		t.Fatal(err)
	}
	if n.setupDied {
		t.Fatalf("setup: %v", n.fatal)
	}
	t.Cleanup(n.Close)
	return &zeroallocRig{trace: trace, n: n}
}

// step runs one packet through the node's machine step: DMA, execution,
// the scrub when due, and — for the containing policies — the checkpoint
// commit plus the buffer-reusing cache snapshot that advance the restore
// point. The recorder's EndPacket, which Process adds around the step, is
// deliberately excluded: it is measurement harness, not simulated
// machine, and it allocates a chunk of observations at a time.
func (r *zeroallocRig) step() error {
	p := &r.trace.Packets[r.next%len(r.trace.Packets)]
	r.next++
	out, err := r.n.step(p)
	if err != nil {
		return err
	}
	if out.Dropped {
		return fmt.Errorf("packet dropped (%s)", out.Reason)
	}
	return nil
}

// TestSteadyStatePacketLoopZeroAlloc pins the steady-state packet loop at
// zero heap allocations per packet under every app, recovery policy, and
// fault regime — including the stateful apps with the integrity guard and
// periodic scrub armed. An allocation on every packet also moves the
// repository benchmark's alloc_mb; this test catches it without timing
// noise (an amortised one shows only in alloc_mb; see zeroallocRig).
func TestSteadyStatePacketLoopZeroAlloc(t *testing.T) {
	policies := []struct {
		pol  RecoveryPolicy
		name string
	}{
		{RecoverAbort, "abort"},
		{RecoverDrop, "drop"},
		{RecoverDegrade, "degrade"},
	}
	regimes := []struct {
		reg  FaultRegime
		name string
	}{
		{RegimePaper, "paper"},
		{RegimeBurst, "burst"},
		{RegimePermanent, "permanent"},
	}
	for _, appName := range []string{"route", "fw", "flowtrack"} {
		for _, p := range policies {
			for _, g := range regimes {
				t.Run(appName+"/"+p.name+"/"+g.name, func(t *testing.T) {
					if appName != "route" && g.reg == RegimePermanent && p.pol != RecoverDegrade {
						// A stuck-at bit inside the flow table re-strikes on
						// every lookup until the recovery ladder exhausts:
						// terminal by design. Only degrade's line disable
						// removes the faulty line and yields a steady state.
						t.Skip("permanent faults in flow state are terminal without line disable")
					}
					r := newZeroallocRig(t, appName, p.pol, g.reg)
					for i := 0; i < 200; i++ {
						if err := r.step(); err != nil {
							t.Fatalf("warm-up packet %d: %v", i, err)
						}
					}
					allocs := testing.AllocsPerRun(100, func() {
						if err := r.step(); err != nil {
							t.Fatalf("measured packet: %v", err)
						}
					})
					if allocs != 0 {
						t.Errorf("steady-state packet loop allocates %.2f times per packet, want 0", allocs)
					}
					// Self-check: the rig must actually exercise the faulty
					// path, or a zero result proves nothing.
					rec := r.n.h.L1D.Recovery
					if rec.FaultsOnRead+rec.FaultsOnWrite == 0 {
						t.Fatal("rig injected no faults; the zero-alloc result is vacuous")
					}
					if rec.ParityErrors == 0 {
						t.Fatal("rig detected no parity errors; recovery path unexercised")
					}
					if g := r.n.guard; g != nil && g.scrubPasses == 0 {
						t.Fatal("stateful rig never scrubbed; the guard path is unexercised")
					}
				})
			}
		}
	}
}
