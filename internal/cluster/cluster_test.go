package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"clumsy/internal/clumsy"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

func mustJSON(t *testing.T, r *Report) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.String()
}

// TestRunChecksNodeConfigFirst: a node configuration the model cannot
// simulate fails the fleet with the check's own error, before the trace
// and the calibration pass.
func TestRunChecksNodeConfigFirst(t *testing.T) {
	_, err := Run(Config{App: "route", Nodes: 4, Packets: 2000, Seed: 3, FaultyNodes: 1, CycleTime: 3})
	if want := "clumsy: CycleTime 3 outside (0, 1]"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestFleetDeterminism pins the package's central contract: a fixed-seed
// fleet run is byte-identical across invocations — workload, arrivals,
// fault streams, dispatch, health decisions, and the rendered report.
func TestFleetDeterminism(t *testing.T) {
	cfg := Config{App: "route", Nodes: 4, Packets: 700, Seed: 9, FaultyNodes: 2, FaultyScale: 80}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := mustJSON(t, r1), mustJSON(t, r2)
	if j1 != j2 {
		t.Errorf("reports differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
	}
	if r1.Completed == 0 {
		t.Error("no packet ever completed")
	}
	var txt bytes.Buffer
	if err := r1.WriteText(&txt); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if txt.Len() == 0 {
		t.Error("empty text report")
	}
}

// TestFleetTelemetry: a fleet reports to the process-wide telemetry hub.
// Its cluster.* counters agree with the report, and the event trace holds
// the health transitions of the node that dies, ending in its death.
func TestFleetTelemetry(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	tel := telemetry.New()
	tel.SetSink(sink)
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)
	r, err := Run(Config{
		App: "route", Nodes: 4, Packets: 1600, Seed: 5,
		FaultyNodes: 1, FaultyScale: 150, FaultyPreDisable: 0.10,
		Health: HealthConfig{MaxDrains: 1, MaxCycleTime: 0.625},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Deaths != 1 {
		t.Fatalf("deaths = %d, want the hostile node dead", r.Deaths)
	}
	for name, want := range map[string]int{
		telemetry.CtrClusterArrivals: r.Arrivals,
		telemetry.CtrClusterDeaths:   r.Deaths,
		telemetry.CtrClusterDrains:   r.Drains,
	} {
		if got := tel.Registry.Counter(name).Load(); got != uint64(want) {
			t.Errorf("%s = %d, report says %d", name, got, want)
		}
	}
	var to []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			Type, To string
			Node     int
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid event %s: %v", sc.Text(), err)
		}
		if ev.Type == telemetry.EventNodeTransition && ev.Node == 3 {
			to = append(to, ev.To)
		}
	}
	if len(to) < 2 || to[len(to)-1] != StateDead.String() {
		t.Fatalf("node 3 transitions %v, want a lifecycle ending in %s", to, StateDead)
	}
}

// TestFleetFailoverAndDeath drives one terminally damaged node (pinned
// pre-disabled frames above the drain bar) through the full lifecycle:
// drain, re-clock, failed probation, drain-budget exhaustion, death — with
// its flows rehashed to the three survivors and the drop SLO intact (one
// dead node of four is within the fleet's capacity margin).
func TestFleetFailoverAndDeath(t *testing.T) {
	// The short drain ladder (one re-clock step, capped low) retires the
	// terminal node within the test's packet budget.
	cfg := Config{
		App: "route", Nodes: 4, Packets: 1600, Seed: 5,
		FaultyNodes: 1, FaultyScale: 150, FaultyPreDisable: 0.10,
		Health: HealthConfig{MaxDrains: 1, MaxCycleTime: 0.625},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deaths != 1 || r.NodesLive != 3 {
		t.Fatalf("deaths=%d live=%d, want the one terminal node dead and 3 survivors", r.Deaths, r.NodesLive)
	}
	if r.PerNode[3].State != "dead" || !r.PerNode[3].Hostile {
		t.Fatalf("node 3 final state %q hostile=%v, want the hostile node dead", r.PerNode[3].State, r.PerNode[3].Hostile)
	}
	if r.Drains == 0 || r.Reclocks == 0 || r.Probations == 0 {
		t.Errorf("death skipped the ladder: drains=%d reclocks=%d probations=%d", r.Drains, r.Reclocks, r.Probations)
	}
	if !r.DropSLOMet {
		t.Errorf("drop SLO broken (%.2f%% > %.2f%%) with only 1/4 nodes dead",
			100*r.FleetDropRate, 100*r.SLOMaxDropRate)
	}
	if r.PerNode[3].Attempted == 0 {
		t.Error("the doomed node never served a packet")
	}
}

// TestFleetGracefulDegradation sweeps the faulty-node fraction and checks
// the acceptance shape: SLO attainment declines monotonically (no cliff to
// zero while survivors remain), and the fleet drop rate stays under the
// SLO until more than a third of the fleet is dead.
func TestFleetGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	// Least-loaded dispatch keeps the fault-free baseline clean: the
	// workload's Zipf-skewed flow mix would pin its hottest flow to one
	// node under flow hashing and overload it with no faults at all.
	atts := make([]float64, 0, 3)
	for _, faulty := range []int{0, 2, 4} {
		r, err := Run(Config{
			App: "route", Nodes: 6, Packets: 1200, Seed: 3,
			Dispatch:    DispatchLeastLoaded,
			FaultyNodes: faulty, FaultyScale: 150, FaultyPreDisable: 0.10,
			Health: HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625},
		})
		if err != nil {
			t.Fatalf("faulty=%d: %v", faulty, err)
		}
		atts = append(atts, r.Attainment)
		deadFrac := float64(r.Deaths) / float64(r.Nodes)
		if deadFrac <= 1.0/3+1e-9 && !r.DropSLOMet {
			t.Errorf("faulty=%d: drop SLO broken (%.2f%%) with only %.0f%% of nodes dead",
				faulty, 100*r.FleetDropRate, 100*deadFrac)
		}
		if faulty > 0 && r.Deaths == 0 {
			t.Errorf("faulty=%d: terminal nodes never died", faulty)
		}
	}
	for i := 1; i < len(atts); i++ {
		if atts[i] > atts[i-1]+0.02 {
			t.Errorf("attainment rose with more faulty nodes: %v", atts)
		}
	}
	if atts[0] < 0.95 {
		t.Errorf("fault-free fleet attainment %.3f, want near 1", atts[0])
	}
	if last := atts[len(atts)-1]; last >= atts[0] || last < 0.10 {
		t.Errorf("degradation not graceful: attainments %v (want a decline, not a cliff to ~0)", atts)
	}
}

// TestFleetAdversarialWorkloadConservation runs the fleet under a
// workload-v2 spec — a flash crowd carrying malformed and flow-churn
// traffic — and checks that (a) packet conservation holds (Run enforces
// completed + nodeDrops + shed == arrivals internally and errors
// otherwise, so a nil error is the assertion), (b) the run is
// deterministic, and (c) the shaped arrivals actually perturb the fleet
// relative to the steady baseline.
func TestFleetAdversarialWorkloadConservation(t *testing.T) {
	spec := &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.15, Churn: 0.25}
	cfg := Config{
		App: "fw", Nodes: 4, Packets: 600, Seed: 11,
		FaultyNodes: 1, FaultyScale: 60,
		Workload: spec,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("adversarial fleet run failed (conservation is checked inside Run): %v", err)
	}
	if r.Arrivals != cfg.Packets {
		t.Errorf("arrivals %d, want every one of the %d packets offered", r.Arrivals, cfg.Packets)
	}
	if got := r.Completed + r.NodeDrops + r.Shed; got != r.Arrivals {
		t.Errorf("report violates conservation: %d+%d+%d != %d",
			r.Completed, r.NodeDrops, r.Shed, r.Arrivals)
	}
	if r.Completed == 0 {
		t.Error("no packet completed under the adversarial workload")
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, r), mustJSON(t, r2); a != b {
		t.Errorf("adversarial fleet run not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	// The shaped/adversarial stream must change the fleet's behaviour —
	// otherwise the spec never reached the arrival process or the nodes.
	steady := cfg
	steady.Workload = nil
	rs, err := Run(steady)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, r) == mustJSON(t, rs) {
		t.Error("workload spec had no observable effect on the fleet report")
	}
	// Flowtrack under a churn flood: same invariants on the other app.
	cfg2 := Config{
		App: "flowtrack", Nodes: 3, Packets: 500, Seed: 4,
		Workload: &workload.Spec{Shape: workload.ShapeOnOff, Churn: 0.4},
	}
	rf, err := Run(cfg2)
	if err != nil {
		t.Fatalf("flowtrack churn fleet: %v", err)
	}
	if got := rf.Completed + rf.NodeDrops + rf.Shed; got != rf.Arrivals || rf.Completed == 0 {
		t.Errorf("flowtrack churn conservation: %d+%d+%d vs %d arrivals",
			rf.Completed, rf.NodeDrops, rf.Shed, rf.Arrivals)
	}
}

func TestParseDispatchPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want DispatchPolicy
		err  bool
	}{
		{"", DispatchFlowHash, false},
		{"flow", DispatchFlowHash, false},
		{"least", DispatchLeastLoaded, false},
		{"random", DispatchFlowHash, true},
	} {
		got, err := ParseDispatchPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseDispatchPolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if DispatchFlowHash.String() != "flow" || DispatchLeastLoaded.String() != "least" {
		t.Error("policy String() drifted from the CLI spellings")
	}
}

func TestNodeStateStrings(t *testing.T) {
	want := map[NodeState]string{
		StateHealthy: "healthy", StateDegraded: "degraded", StateDraining: "draining",
		StateProbation: "probation", StateDead: "dead", NodeState(99): "invalid",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
	for _, s := range []NodeState{StateHealthy, StateDegraded, StateProbation} {
		if !s.eligible() {
			t.Errorf("%s should take traffic", s)
		}
	}
	for _, s := range []NodeState{StateDraining, StateDead} {
		if s.eligible() {
			t.Errorf("%s should not take traffic", s)
		}
	}
}
