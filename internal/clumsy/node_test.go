package clumsy

import (
	"errors"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/packet"
)

func nodeTrace(t *testing.T, app string, packets int, seed uint64) *packet.Trace {
	t.Helper()
	a, err := apps.New(app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := packet.Generate(a.TraceConfig(packets, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNodeStreamsCleanly: a benign node serves the whole workload with no
// drops, positive per-packet service times, and health evidence that says
// so.
func TestNodeStreamsCleanly(t *testing.T) {
	cfg := Config{App: "route", Seed: 11, CycleTime: 1.0,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop}
	tr := nodeTrace(t, cfg.App, 300, cfg.Seed)
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Budget == 0 || cal.Delay <= 0 {
		t.Fatalf("degenerate calibration %+v", cal)
	}
	n, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := range tr.Packets {
		out, err := n.Process(&tr.Packets[i])
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if out.Dropped || out.Fatal {
			t.Fatalf("packet %d dropped (%s) at full swing with no faults", i, out.Reason)
		}
		if out.Cycles <= 0 {
			t.Fatalf("packet %d cost %v cycles", i, out.Cycles)
		}
	}
	h := n.Health()
	if h.Processed != len(tr.Packets) || h.Contained != 0 || h.Dead {
		t.Fatalf("health %+v after a clean stream", h)
	}
}

// TestNodeDeterministic: two nodes opened with the same configuration
// produce identical per-packet outcomes and health.
func TestNodeDeterministic(t *testing.T) {
	cfg := Config{App: "route", Seed: 21, CycleTime: 0.25,
		Detection: cache.DetectionParity, Strikes: 2,
		Regime: RegimePermanent, FaultScale: 60, Recovery: RecoverDrop}
	tr := nodeTrace(t, cfg.App, 250, cfg.Seed)
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := range tr.Packets {
		oa, ea := a.Process(&tr.Packets[i])
		ob, eb := b.Process(&tr.Packets[i])
		if (ea != nil) != (eb != nil) {
			t.Fatalf("packet %d: error divergence %v vs %v", i, ea, eb)
		}
		if oa != ob {
			t.Fatalf("packet %d: outcome divergence %+v vs %+v", i, oa, ob)
		}
	}
	if a.Health() != b.Health() {
		t.Fatalf("health divergence %+v vs %+v", a.Health(), b.Health())
	}
}

// TestNodeReclock: re-clocking raises the cycle time and returns
// non-pinned disabled frames to service; pinned (hard-damaged) frames
// stay out.
func TestNodeReclock(t *testing.T) {
	cfg := Config{App: "route", Seed: 4, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, Planes: PlaneData,
		Regime: RegimePermanent, FaultScale: 120, PreDisableFrac: 0.05,
		Recovery: RecoverDegrade}
	tr := nodeTrace(t, cfg.App, 400, cfg.Seed)
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	pinned := n.Health().LinesDisabled // the pre-disabled (hard) frames
	if pinned == 0 {
		t.Fatal("PreDisableFrac pinned no frames")
	}
	for i := range tr.Packets {
		if _, err := n.Process(&tr.Packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := n.Health()
	if before.LinesDisabled <= pinned {
		t.Fatalf("expected soft disables beyond the %d pinned frames, got %d", pinned, before.LinesDisabled)
	}
	if got := n.Reclock(0.3); got != 0.5 {
		t.Fatalf("Reclock must clamp upward-only: got %v", got)
	}
	if got := n.Reclock(2.0); got != 1.0 {
		t.Fatalf("Reclock must cap at full swing: got %v", got)
	}
	after := n.Health()
	if after.CycleTime != 1.0 {
		t.Fatalf("cycle time %v after re-clock", after.CycleTime)
	}
	if after.LinesDisabled != pinned {
		t.Fatalf("re-clock left %d lines disabled, want only the %d pinned", after.LinesDisabled, pinned)
	}
}

// TestNodeDeadAfterAbort: under the abort policy the first fatal error
// ends the node's service life and later Process calls refuse. The
// synthetic panicky app makes the fatal deterministic: the Calibrate pass
// builds instance 1, the node instance 2, and instance 2 is armed to
// panic at packet 5.
func TestNodeDeadAfterAbort(t *testing.T) {
	cfg := Config{App: "panicky", Seed: 2, FaultScale: 1e-12, Recovery: RecoverAbort}
	tr := nodeTrace(t, cfg.App, 40, cfg.Seed)
	armPanicky(2, 5, false)
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	n, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 5; i++ {
		out, err := n.Process(&tr.Packets[i])
		if err != nil || out.Dropped {
			t.Fatalf("packet %d: err=%v out=%+v before the armed index", i, err, out)
		}
	}
	out, err := n.Process(&tr.Packets[5])
	if err != nil {
		t.Fatalf("armed packet: %v", err)
	}
	if !out.Dropped || !out.Fatal || out.Reason == "" {
		t.Fatalf("armed packet outcome %+v, want a fatal drop with a reason", out)
	}
	if n.FatalErr() == nil {
		t.Fatal("fatal outcome without a recorded error")
	}
	if !n.Health().Dead {
		t.Fatal("health does not report the node dead")
	}
	if _, err := n.Process(&tr.Packets[6]); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("Process on a dead node returned %v, want ErrNodeDead", err)
	}
}
