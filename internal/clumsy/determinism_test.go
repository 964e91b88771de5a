package clumsy

import (
	"bytes"
	"encoding/json"
	"testing"

	"clumsy/internal/cache"
	"clumsy/internal/workload"
)

// resultBytes serializes everything a run reports — the metrics.Report plus
// every measured field of the Result — so two runs can be compared
// byte-for-byte. Maps inside the Report (per-structure error counts)
// marshal with sorted keys, so identical contents yield identical bytes.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	fatal := ""
	if r.FatalErr != nil {
		fatal = r.FatalErr.Error()
	}
	b, err := json.Marshal(struct {
		Report        any
		GoldenCycles  float64
		GoldenInstrs  uint64
		GoldenDelay   float64
		GoldenEnergy  any
		Cycles        float64
		Breakdown     any
		Instrs        uint64
		Delay         float64
		Energy        any
		L1DStats      any
		Recovery      any
		Fatal         string
		SetupDied     bool
		Contained     int
		RestoredPages uint64
		LevelPackets  []uint64
		Switches      int
		Timeline      []FreqEvent

		LinesDisabled    int
		DisabledFrac     float64
		StrikeHist       [8]uint64
		BurstEpisodes    uint64
		PermanentHits    uint64
		IntermittentHits uint64
		SpatialBackoffs  int

		StateRecords    int
		StateDetected   uint64
		StateEvictions  uint64
		StateRebuilds   uint64
		StateScrubs     uint64
		StateDiverged   int
		StateUndetected int
	}{
		Report:        r.Report,
		GoldenCycles:  r.GoldenCycles,
		GoldenInstrs:  r.GoldenInstrs,
		GoldenDelay:   r.GoldenDelay,
		GoldenEnergy:  r.GoldenEnergy,
		Cycles:        r.Cycles,
		Breakdown:     r.Breakdown,
		Instrs:        r.Instrs,
		Delay:         r.Delay,
		Energy:        r.Energy,
		L1DStats:      r.L1DStats,
		Recovery:      r.Recovery,
		Fatal:         fatal,
		SetupDied:     r.SetupDied,
		Contained:     r.Contained,
		RestoredPages: r.RestoredPages,
		LevelPackets:  r.LevelPackets,
		Switches:      r.Switches,
		Timeline:      r.Timeline,

		LinesDisabled:    r.LinesDisabled,
		DisabledFrac:     r.DisabledFrac,
		StrikeHist:       r.StrikeHist,
		BurstEpisodes:    r.BurstEpisodes,
		PermanentHits:    r.PermanentHits,
		IntermittentHits: r.IntermittentHits,
		SpatialBackoffs:  r.SpatialBackoffs,

		StateRecords:    r.StateRecords,
		StateDetected:   r.StateDetected,
		StateEvictions:  r.StateEvictions,
		StateRebuilds:   r.StateRebuilds,
		StateScrubs:     r.StateScrubs,
		StateDiverged:   r.StateDiverged,
		StateUndetected: r.StateUndetected,
	})
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestRunDeterminism is the bit-determinism contract the detwalk analyzer
// exists to protect: a seeded configuration is a pure function — running it
// twice yields byte-identical results, under both recovery policies, with
// and without the dynamic frequency controller. If this test starts
// failing, some nondeterminism (map iteration, wall clock, goroutine
// scheduling) has leaked into the sim core; `go run ./cmd/clumsylint ./...`
// is the first place to look.
func TestRunDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"abort", Config{App: "route", Packets: 200, Seed: 7, FaultScale: 2e3,
			CycleTime: 0.25, Recovery: RecoverAbort}},
		{"drop", Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3,
			CycleTime: 0.25, Recovery: RecoverDrop}},
		{"drop-parity", Config{App: "drr", Packets: 150, Seed: 3, FaultScale: 5e3,
			CycleTime: 0.25, Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop}},
		{"dynamic", Config{App: "crc", Packets: 300, Seed: 11, FaultScale: 1e3,
			Dynamic: true, Recovery: RecoverAbort}},
		{"burst-drop", Config{App: "nat", Packets: 150, Seed: 9, FaultScale: 2e3,
			CycleTime: 0.25, Recovery: RecoverDrop, Regime: RegimeBurst}},
		{"burst-degrade", Config{App: "route", Packets: 200, Seed: 7, FaultScale: 5e3,
			CycleTime: 0.25, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDegrade, Regime: RegimeBurst}},
		{"permanent-abort-parity", Config{App: "drr", Packets: 150, Seed: 3, FaultScale: 5e3,
			CycleTime: 0.25, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverAbort, Regime: RegimePermanent}},
		{"permanent-degrade-dynamic", Config{App: "crc", Packets: 300, Seed: 11, FaultScale: 1e3,
			Dynamic: true, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDegrade, Regime: RegimePermanent}},
		{"predisable-degrade", Config{App: "route", Packets: 150, Seed: 5, FaultScale: 2e3,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDegrade, Regime: RegimePermanent, PreDisableFrac: 0.25}},

		// The stateful applications under every recovery policy: the state
		// guard (verified lookups, scrub passes, recovery ladder, shadow
		// commit/restore) must be as bit-deterministic as the rest of the
		// machine, including under the adversarial workload substrate.
		{"fw-abort", Config{App: "fw", Packets: 150, Seed: 7, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverAbort}},
		{"fw-drop-burst", Config{App: "fw", Packets: 200, Seed: 9, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDrop, Regime: RegimeBurst, ScrubInterval: 32,
			Workload: &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.15, Churn: 0.25}}},
		{"fw-degrade-permanent", Config{App: "fw", Packets: 200, Seed: 3, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDegrade, Regime: RegimePermanent, StateStrikes: 6}},
		{"flowtrack-abort", Config{App: "flowtrack", Packets: 150, Seed: 5, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverAbort, Workload: &workload.Spec{Shape: workload.ShapeOnOff, Churn: 0.2}}},
		{"flowtrack-drop", Config{App: "flowtrack", Packets: 200, Seed: 11, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDrop, Regime: RegimeBurst}},
		{"flowtrack-degrade", Config{App: "flowtrack", Packets: 200, Seed: 13, FaultScale: 25,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
			Recovery: RecoverDegrade, Regime: RegimePermanent,
			Workload: &workload.Spec{Shape: workload.ShapeDiurnal, Adversarial: 0.1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ab, bb := resultBytes(t, a), resultBytes(t, b)
			if !bytes.Equal(ab, bb) {
				t.Errorf("identical seeded configs diverge:\nfirst:  %s\nsecond: %s", ab, bb)
			}
		})
	}
}

// TestPaperRegimeLadderDormant is the backward-compatibility contract of
// the correlated-fault work: under the paper regime with the original
// policies, every ladder mechanism stays dormant, and spelling the regime
// out explicitly is byte-identical to the zero-value Config the existing
// tables are generated from.
func TestPaperRegimeLadderDormant(t *testing.T) {
	base := Config{App: "route", Packets: 200, Seed: 7, FaultScale: 2e3,
		CycleTime: 0.25, Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverAbort}
	implicit, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	spelled := base
	spelled.Regime = RegimePaper
	explicit, err := Run(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, implicit), resultBytes(t, explicit)) {
		t.Error("explicit RegimePaper diverges from the zero-value Config")
	}
	r := implicit
	if r.LinesDisabled != 0 || r.DisabledFrac != 0 || r.SpatialBackoffs != 0 ||
		r.BurstEpisodes != 0 || r.PermanentHits != 0 || r.IntermittentHits != 0 ||
		r.Recovery.LineDisables != 0 || r.Recovery.Bypasses != 0 {
		t.Errorf("ladder acted under the paper regime: %+v", r.Recovery)
	}
}

// TestRegimesDiverge pins that the three fault regimes are genuinely
// different processes from the same seed — in particular that the
// stuck-at overlay's construction does not silently replay the paper or
// burst transient stream (a one-draw constructor offset once made burst
// and permanent byte-identical).
func TestRegimesDiverge(t *testing.T) {
	base := Config{App: "nat", Packets: 300, Seed: 9, FaultScale: 1e4,
		CycleTime: 0.25, Detection: cache.DetectionParity, Strikes: 2, Recovery: RecoverDrop}
	results := map[FaultRegime]*Result{}
	for _, regime := range []FaultRegime{RegimePaper, RegimeBurst, RegimePermanent} {
		cfg := base
		cfg.Regime = regime
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[regime] = res
	}
	if bytes.Equal(resultBytes(t, results[RegimePaper]), resultBytes(t, results[RegimeBurst])) {
		t.Error("paper and burst regimes are byte-identical")
	}
	if bytes.Equal(resultBytes(t, results[RegimePaper]), resultBytes(t, results[RegimePermanent])) {
		t.Error("paper and permanent regimes are byte-identical")
	}
	if bytes.Equal(resultBytes(t, results[RegimeBurst]), resultBytes(t, results[RegimePermanent])) {
		t.Error("burst and permanent regimes are byte-identical")
	}
	if results[RegimePermanent].PermanentHits == 0 {
		t.Error("no stuck-at hits at Cr=0.25, below every weak cell's threshold")
	}
}

// TestPreDisableDegradesGracefully: with half the L1D dead before the run
// starts, the degrade policy limps on through the bypass path instead of
// dying — the graceful-degradation curve's existence proof.
func TestPreDisableDegradesGracefully(t *testing.T) {
	res, err := Run(Config{App: "route", Packets: 200, Seed: 5, FaultScale: 2e3,
		CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2,
		Recovery: RecoverDegrade, Regime: RegimePermanent, PreDisableFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupDied || res.Report.Fatal {
		t.Fatalf("half-dead cache was not survivable: setupDied=%v fatal=%v", res.SetupDied, res.Report.Fatal)
	}
	if res.DisabledFrac < 0.5 {
		t.Errorf("DisabledFrac = %g, want >= 0.5 (pre-disabled frames are pinned)", res.DisabledFrac)
	}
	if res.Recovery.Bypasses == 0 {
		t.Error("no bypass accesses despite half the cache being dead")
	}
	if res.Report.Processed == 0 {
		t.Error("no packets completed")
	}
}
