package clumsy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clumsy/internal/cache"
	"clumsy/internal/packet"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

// lifecyclePinsFile holds the pinned digests, the oracle for refactors of
// the engine lifecycle. To re-pin after a deliberate change of simulated
// behaviour, delete the file and run the test once: it records the current
// engine's digests and fails so the new file gets reviewed.
const lifecyclePinsFile = "testdata/lifecycle_pins.json"

// pinRun is one traced batch run: its Result, the JSONL event stream of the
// faulty pass, and the counter registry after the run.
type pinRun struct {
	res    *Result
	events string
	reg    []byte
}

// count returns how many trace records of the given type (and, when reason
// is non-empty, with that drop/restore reason) the run emitted.
func (r *pinRun) count(typ, reason string) int {
	n := 0
	for _, line := range strings.Split(r.events, "\n") {
		if !strings.Contains(line, `"type":"`+typ+`"`) {
			continue
		}
		if reason != "" && !strings.Contains(line, `"reason":"`+reason+`"`) {
			continue
		}
		n++
	}
	return n
}

// runDigestBytes renders everything a Result reports. Pointers inside the
// Config print as addresses under %+v, so they are cleared (the workload
// spec is rendered by value instead) and the fatal error is rendered by its
// text.
func runDigestBytes(r *Result) []byte {
	c := *r
	fatal := ""
	if c.FatalErr != nil {
		fatal = c.FatalErr.Error()
	}
	c.FatalErr = nil
	spec := ""
	if c.Config.Workload != nil {
		spec = c.Config.Workload.String()
	}
	c.Config.Workload = nil
	c.Config.Telemetry = nil
	return []byte(fmt.Sprintf("%+v\nworkload=%s\nfatal=%s\n", c, spec, fatal))
}

// tracedRun runs cfg (or cfg over tr, when tr is non-nil) with a private
// telemetry hub recording every event.
func tracedRun(t *testing.T, cfg Config, tr *packet.Trace) *pinRun {
	t.Helper()
	tel := telemetry.New()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel.SetSink(sink)
	cfg.Telemetry = tel
	var res *Result
	var err error
	if tr != nil {
		res, err = RunWithTrace(cfg, tr)
	} else {
		res, err = Run(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var reg bytes.Buffer
	if err := tel.Registry.WriteJSON(&reg); err != nil {
		t.Fatal(err)
	}
	return &pinRun{res: res, events: buf.String(), reg: reg.Bytes()}
}

// pinCase is one pinned scenario. run produces the bytes to digest; it must
// fail the test when the branch the case targets was not exercised, so no
// pin is vacuous.
type pinCase struct {
	name string
	run  func(t *testing.T) []byte
}

// routeMatrixConfig is the policy x regime grid on route. A watchdog
// budget below the golden worst packet makes the trace's heaviest packets
// fatal, so abort dies and drop/degrade contain within a few hundred
// packets; seed 16 enters a burst episode before the abort run dies.
func routeMatrixConfig(pol RecoveryPolicy, reg FaultRegime) Config {
	return Config{App: "route", Packets: 300, Seed: 16, CycleTime: 0.25, FaultScale: 200,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: pol, Regime: reg, WatchdogFactor: 0.9}
}

func runPinCases() []pinCase {
	var cases []pinCase
	runCase := func(name string, cfg Config, tr func(t *testing.T) *packet.Trace, hit func(r *pinRun) error) {
		cases = append(cases, pinCase{name: "run/" + name, run: func(t *testing.T) []byte {
			var trace *packet.Trace
			if tr != nil {
				trace = tr(t)
			}
			r := tracedRun(t, cfg, trace)
			if err := hit(r); err != nil {
				t.Fatalf("branch not exercised: %v", err)
			}
			return runDigestBytes(r.res)
		}})
	}

	for _, pol := range []RecoveryPolicy{RecoverAbort, RecoverDrop, RecoverDegrade} {
		for _, reg := range []FaultRegime{RegimePaper, RegimeBurst, RegimePermanent} {
			pol, reg := pol, reg
			runCase("route/"+pol.String()+"/"+reg.String(), routeMatrixConfig(pol, reg), nil, func(r *pinRun) error {
				res := r.res
				switch pol {
				case RecoverAbort:
					if res.FatalErr == nil || res.Contained != 0 {
						return fmt.Errorf("abort run did not die on a packet (fatal=%v contained=%d)", res.FatalErr, res.Contained)
					}
				case RecoverDrop, RecoverDegrade:
					if res.Contained == 0 || r.count(telemetry.EventStateRestore, "watchdog") == 0 {
						return errors.New("no contained watchdog drop")
					}
				}
				if pol == RecoverDegrade && res.Recovery.LineDisables == 0 {
					return errors.New("degrade disabled no line")
				}
				switch reg {
				case RegimeBurst:
					if res.BurstEpisodes == 0 {
						return errors.New("no burst episode")
					}
				case RegimePermanent:
					if res.PermanentHits == 0 {
						return errors.New("no permanent hit")
					}
				case RegimePaper:
				}
				return nil
			})
		}
	}

	runCase("fw/scrub", Config{App: "fw", Packets: 300, Seed: 9, CycleTime: 0.5, FaultScale: 25,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst,
		ScrubInterval: 16}, nil, func(r *pinRun) error {
		if r.res.StateScrubs == 0 || r.res.StateDetected == 0 {
			return fmt.Errorf("scrubs=%d detected=%d", r.res.StateScrubs, r.res.StateDetected)
		}
		return nil
	})
	runCase("flowtrack/scrub", Config{App: "flowtrack", Packets: 300, Seed: 13, CycleTime: 0.5, FaultScale: 25,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDegrade, Regime: RegimePermanent,
		ScrubInterval: 16}, nil, func(r *pinRun) error {
		if r.res.StateScrubs == 0 || r.res.StateDetected == 0 {
			return fmt.Errorf("scrubs=%d detected=%d", r.res.StateScrubs, r.res.StateDetected)
		}
		return nil
	})
	runCase("dynamic/degrade", Config{App: "route", Packets: 600, Seed: 7, FaultScale: 2e3, Dynamic: true,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDegrade, Regime: RegimePermanent},
		nil, func(r *pinRun) error {
			if len(r.res.Timeline) == 0 || r.res.SpatialBackoffs == 0 {
				return fmt.Errorf("timeline=%d spatial=%d", len(r.res.Timeline), r.res.SpatialBackoffs)
			}
			return nil
		})
	runCase("setup-death", Config{App: "panicky", Seed: 3, FaultScale: 1e-12, Recovery: RecoverDrop,
		MaxDropRate: 0.5}, func(t *testing.T) *packet.Trace {
		armPanicky(2, 0, true)
		return panickyTrace(t, 40)
	}, func(r *pinRun) error {
		if !r.res.SetupDied || r.count(telemetry.EventPacketDrop, "panic") != 1 {
			return errors.New("no setup death")
		}
		return nil
	})
	runCase("first-packet-death", Config{App: "panicky", Seed: 3, FaultScale: 1e-12},
		func(t *testing.T) *packet.Trace {
			armPanicky(2, 0, false)
			return panickyTrace(t, 40)
		}, func(r *pinRun) error {
			if r.res.SetupDied || r.res.FatalErr == nil || r.res.Report.Processed != 0 {
				return errors.New("no death on the first packet")
			}
			return nil
		})
	runCase("panic-contained", Config{App: "panicky", Seed: 3, FaultScale: 1e-12, Recovery: RecoverDrop},
		func(t *testing.T) *packet.Trace {
			armPanicky(2, 5, false)
			return panickyTrace(t, 40)
		}, func(r *pinRun) error {
			if r.res.Contained != 1 || panicky.resets == 0 {
				return fmt.Errorf("contained=%d resets=%d", r.res.Contained, panicky.resets)
			}
			return nil
		})
	dropRate := routeMatrixConfig(RecoverDrop, RegimePaper)
	dropRate.MaxDropRate = 0.02
	runCase("drop-rate", dropRate, nil, func(r *pinRun) error {
		if !errors.Is(r.res.FatalErr, ErrDropRateExceeded) {
			return fmt.Errorf("fatal=%v", r.res.FatalErr)
		}
		return nil
	})
	runCase("state-corrupt/packet", Config{App: "fw", Packets: 300, Seed: 9, CycleTime: 0.5, FaultScale: 50,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst,
		StateStrikes: 1, ScrubInterval: -1}, nil, func(r *pinRun) error {
		if !errors.Is(r.res.FatalErr, ErrStateCorrupt) || r.count(telemetry.EventPacketDrop, "state_corrupt") != 1 {
			return fmt.Errorf("fatal=%v", r.res.FatalErr)
		}
		return nil
	})
	runCase("state-corrupt/scrub", Config{App: "fw", Packets: 300, Seed: 9, CycleTime: 0.5, FaultScale: 50,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst,
		StateStrikes: 1, ScrubInterval: 1}, nil, func(r *pinRun) error {
		if !errors.Is(r.res.FatalErr, ErrStateCorrupt) || r.count(telemetry.EventPacketDrop, "state_corrupt") != 0 {
			return fmt.Errorf("fatal=%v (want a scrub-pass exhaustion)", r.res.FatalErr)
		}
		return nil
	})
	runCase("predisable", Config{App: "route", Packets: 300, Seed: 5, CycleTime: 0.5, FaultScale: 200,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, PreDisableFrac: 0.25},
		nil, func(r *pinRun) error {
			if r.res.LinesDisabled == 0 {
				return errors.New("no frame pre-disabled")
			}
			return nil
		})
	runCase("subblock", Config{App: "route", Packets: 300, Seed: 21, CycleTime: 0.25, FaultScale: 50,
		Detection: cache.DetectionParity, Strikes: 2, SubBlock: true}, nil, func(r *pinRun) error {
		if r.res.Recovery.Recoveries == 0 {
			return errors.New("no sub-block recovery")
		}
		return nil
	})
	runCase("ecc", Config{App: "route", Packets: 300, Seed: 21, CycleTime: 0.25, FaultScale: 50,
		Detection: cache.DetectionECC, Strikes: 1}, nil, func(r *pinRun) error {
		if r.res.Recovery.Corrected == 0 {
			return errors.New("no ECC correction")
		}
		return nil
	})
	runCase("l1dsize", Config{App: "route", Packets: 300, Seed: 7, CycleTime: 0.25, FaultScale: 2e3,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDegrade, Regime: RegimePermanent,
		L1DSize: 8192}, nil, func(r *pinRun) error {
		if r.res.PermanentHits == 0 || r.res.GoldenL1DStats == r.res.L1DStats {
			return errors.New("no permanent hit on the resized L1D")
		}
		return nil
	})
	runCase("adversarial", Config{App: "fw", Seed: 11, CycleTime: 0.5, FaultScale: 10,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst},
		func(t *testing.T) *packet.Trace {
			return adversarialTrace(t, "fw", 300, 11)
		}, func(r *pinRun) error {
			if r.res.Report.Processed == 0 {
				return errors.New("nothing processed")
			}
			return nil
		})
	return cases
}

// adversarialTrace is the app's trace under a hostile workload: a flash
// crowd with malformed wire images (including zero-byte arrivals) and flow
// churn. It fails the test unless both kinds of raw image are present.
func adversarialTrace(t *testing.T, app string, packets int, seed uint64) *packet.Trace {
	t.Helper()
	tr := workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.3, Churn: 0.3}.
		Apply(nodeTrace(t, app, packets, seed), seed)
	raw, empty := 0, 0
	for i := range tr.Packets {
		if tr.Packets[i].Raw != nil {
			raw++
			if len(tr.Packets[i].Raw) == 0 {
				empty++
			}
		}
	}
	if raw == 0 || empty == 0 {
		t.Fatalf("adversarial trace has %d raw images, %d empty", raw, empty)
	}
	return tr
}

func telemetryPinCases() []pinCase {
	var cases []pinCase
	telCase := func(name string, cfg Config, typ string) {
		cases = append(cases, pinCase{name: "telemetry/" + name, run: func(t *testing.T) []byte {
			r := tracedRun(t, cfg, nil)
			if r.count(typ, "") == 0 {
				t.Fatalf("branch not exercised: no %s event", typ)
			}
			return append(append(r.reg, "\n--- events\n"...), r.events...)
		}})
	}
	telCase("contained-drop", routeMatrixConfig(RecoverDrop, RegimePaper), telemetry.EventStateRestore)
	telCase("dynamic", Config{App: "route", Packets: 1200, Seed: 7, FaultScale: 10, Dynamic: true,
		Detection: cache.DetectionParity, Strikes: 2}, telemetry.EventFreqTransition)
	telCase("burst", routeMatrixConfig(RecoverDegrade, RegimeBurst), telemetry.EventBurstEnter)
	telCase("stateful", Config{App: "fw", Packets: 300, Seed: 9, CycleTime: 0.5, FaultScale: 25,
		Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst,
		ScrubInterval: 16}, telemetry.EventStateCorrupt)
	return cases
}

// nodeLog records a node's life: its calibration, every per-packet
// outcome, and health snapshots. Fatal errors are recorded by their
// dropReason class only.
type nodeLog struct {
	b      bytes.Buffer
	fatals int
	dead   bool
}

func (l *nodeLog) serve(t *testing.T, n *Node, ps []packet.Packet) {
	t.Helper()
	for i := range ps {
		out, err := n.Process(&ps[i])
		if errors.Is(err, ErrNodeDead) {
			l.dead = true
			fmt.Fprintf(&l.b, "dead\n")
			continue
		}
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if out.Fatal {
			l.fatals++
		}
		fmt.Fprintf(&l.b, "%+v\n", out)
	}
}

func (l *nodeLog) health(n *Node) NodeHealth {
	h := n.Health()
	fmt.Fprintf(&l.b, "health %+v\n", h)
	if err := n.FatalErr(); err != nil {
		fmt.Fprintf(&l.b, "fatal class %s\n", dropReason(err))
	}
	return h
}

// openPinNode calibrates and opens a node over tr, logging the calibration.
func openPinNode(t *testing.T, l *nodeLog, cfg Config, tr *packet.Trace) *Node {
	t.Helper()
	cal, err := Calibrate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&l.b, "calibration %+v\n", cal)
	n, err := OpenNode(cfg, tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func nodePinCases() []pinCase {
	var cases []pinCase
	nodeCase := func(name string, f func(t *testing.T, l *nodeLog)) {
		cases = append(cases, pinCase{name: "node/" + name, run: func(t *testing.T) []byte {
			var l nodeLog
			f(t, &l)
			return l.b.Bytes()
		}})
	}
	nodeCase("abort-death", func(t *testing.T, l *nodeLog) {
		cfg := Config{App: "panicky", Seed: 2, FaultScale: 1e-12, Recovery: RecoverAbort}
		tr := panickyTrace(t, 40)
		armPanicky(2, 5, false)
		n := openPinNode(t, l, cfg, tr)
		l.serve(t, n, tr.Packets)
		h := l.health(n)
		if l.fatals != 1 || !l.dead || !h.Dead {
			t.Fatalf("branch not exercised: fatals=%d dead=%v", l.fatals, l.dead)
		}
	})
	nodeCase("drop", func(t *testing.T, l *nodeLog) {
		cfg := routeMatrixConfig(RecoverDrop, RegimePaper)
		tr := nodeTrace(t, cfg.App, cfg.Packets, cfg.Seed)
		n := openPinNode(t, l, cfg, tr)
		l.serve(t, n, tr.Packets)
		if h := l.health(n); h.Contained == 0 || h.WatchdogKills == 0 || l.fatals != 0 {
			t.Fatalf("branch not exercised: %+v", h)
		}
	})
	nodeCase("degrade-reclock", func(t *testing.T, l *nodeLog) {
		cfg := Config{App: "route", Seed: 4, CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Planes: PlaneData, Regime: RegimePermanent, FaultScale: 120, PreDisableFrac: 0.05,
			Recovery: RecoverDegrade}
		tr := nodeTrace(t, cfg.App, 500, cfg.Seed)
		n := openPinNode(t, l, cfg, tr)
		pinned := l.health(n).LinesDisabled
		l.serve(t, n, tr.Packets[:400])
		before := l.health(n)
		cr := n.Reclock(1.0)
		fmt.Fprintf(&l.b, "reclock %v\n", cr)
		after := l.health(n)
		l.serve(t, n, tr.Packets[400:])
		l.health(n)
		if before.LinesDisabled <= pinned || after.LinesDisabled != pinned || cr != 1 {
			t.Fatalf("branch not exercised: pinned=%d before=%+v after=%+v", pinned, before, after)
		}
	})
	nodeCase("drop-rate", func(t *testing.T, l *nodeLog) {
		cfg := routeMatrixConfig(RecoverDrop, RegimePaper)
		cfg.MaxDropRate = 0.02
		tr := nodeTrace(t, cfg.App, cfg.Packets, cfg.Seed)
		n := openPinNode(t, l, cfg, tr)
		l.serve(t, n, tr.Packets)
		l.health(n)
		if !errors.Is(n.FatalErr(), ErrDropRateExceeded) || !l.dead {
			t.Fatalf("branch not exercised: fatal=%v", n.FatalErr())
		}
	})
	nodeCase("dynamic-degrade", func(t *testing.T, l *nodeLog) {
		cfg := Config{App: "route", Seed: 7, FaultScale: 2e3, Dynamic: true,
			Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDegrade, Regime: RegimePermanent}
		tr := nodeTrace(t, cfg.App, 600, cfg.Seed)
		n := openPinNode(t, l, cfg, tr)
		l.serve(t, n, tr.Packets)
		if h := l.health(n); h.SpatialBackoffs == 0 || h.CycleTime == 1 {
			t.Fatalf("branch not exercised: %+v", h)
		}
	})
	// Both exits of an exhausted state ladder: inside a packet (scrub
	// off), and in the periodic scrub after a packet completed.
	for _, scrub := range []int{-1, 8} {
		scrub := scrub
		name := "stateful/packet"
		if scrub > 0 {
			name = "stateful/scrub"
		}
		nodeCase(name, func(t *testing.T, l *nodeLog) {
			cfg := Config{App: "fw", Seed: 9, CycleTime: 0.5, FaultScale: 200,
				Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop, Regime: RegimeBurst,
				StateStrikes: 1, ScrubInterval: scrub}
			tr := adversarialTrace(t, cfg.App, 300, cfg.Seed)
			n := openPinNode(t, l, cfg, tr)
			l.serve(t, n, tr.Packets)
			h := l.health(n)
			completed := h.Attempted - 1
			if scrub > 0 {
				completed = h.Attempted
			}
			if !errors.Is(n.FatalErr(), ErrStateCorrupt) || h.Processed != completed {
				t.Fatalf("branch not exercised: fatal=%v health=%+v", n.FatalErr(), h)
			}
		})
	}
	nodeCase("oversize", func(t *testing.T, l *nodeLog) {
		cfg := Config{App: "route", Seed: 3, FaultScale: 1e-12}
		tr := nodeTrace(t, cfg.App, 50, cfg.Seed)
		n := openPinNode(t, l, cfg, tr)
		l.serve(t, n, tr.Packets)
		big := tr.Packets[0]
		big.Payload = make([]byte, 4096)
		_, err := n.Process(&big)
		fmt.Fprintf(&l.b, "oversize error %v\n", err)
		if err == nil || errors.Is(err, ErrNodeDead) {
			t.Fatalf("branch not exercised: oversize packet returned %v", err)
		}
		l.health(n)
	})
	return cases
}

// TestEngineLifecyclePins pins the exact simulated output of the batch
// path (Run, RunWithTrace), its telemetry, and the streaming node API
// (Calibrate, OpenNode, Node.Process, Reclock) across a matrix that
// reaches every branch of the packet step: every recovery policy under
// every fault regime, stateful scrub and both ladder-exhaustion exits,
// setup death, drop-rate death, the dynamic controller with spatial
// backoff, and the cache-geometry knobs. A refactor of the engine
// lifecycle must leave every digest unchanged.
func TestEngineLifecyclePins(t *testing.T) {
	var cases []pinCase
	cases = append(cases, runPinCases()...)
	cases = append(cases, telemetryPinCases()...)
	cases = append(cases, nodePinCases()...)

	got := make(map[string]string, len(cases))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256(c.run(t))
			got[c.name] = hex.EncodeToString(sum[:])
		})
	}
	path := filepath.FromSlash(lifecyclePinsFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if t.Failed() {
			t.Fatal("not recording pins: a case failed")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d new pins in %s; review and commit them", len(got), path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned case no longer runs", name)
		}
	}
	for _, c := range cases {
		switch {
		case got[c.name] == "":
			// The case itself failed and said why.
		case want[c.name] == "":
			t.Errorf("%s: no pinned digest (delete %s to re-pin)", c.name, path)
		case got[c.name] != want[c.name]:
			t.Errorf("%s: digest %s, pinned %s", c.name, got[c.name], want[c.name])
		}
	}
}
