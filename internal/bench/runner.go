package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/cluster"
	"clumsy/internal/telemetry"
)

// Options configures a benchmark run.
type Options struct {
	// Quick shrinks the matrix and the per-sample packet count to a CI
	// smoke-test scale (a few seconds instead of tens).
	Quick bool
	// Samples overrides the number of measured samples per case (0 = the
	// mode's default). Every case additionally runs one warm-up sample
	// that is discarded.
	Samples int
	// Progress, when non-nil, receives one line per completed case.
	Progress io.Writer
}

// benchSeed fixes the fault/trace stream of every simulator case: the
// simulated metrics are then byte-stable across samples and runs, and only
// the host-side timings vary.
const benchSeed = 7

// simCase is one (app, policy, regime) cell of the benchmark matrix.
type simCase struct {
	app     string
	policy  clumsy.RecoveryPolicy
	polName string
	regime  clumsy.FaultRegime
	regName string
}

// matrix builds the benchmark's simulator cases: every paper application
// plus the stateful extensions (fw, flowtrack) under every recovery
// policy and fault regime. Quick mode keeps every (policy, regime)
// combination but only a four-application spread (table lookup, hashing,
// pattern match, stateful firewall), so the smoke test still touches each
// recovery path and the state-integrity machinery.
func matrix(quick bool) []simCase {
	names := append(apps.Names(), "fw", "flowtrack")
	if quick {
		names = []string{"route", "md5", "url", "fw"}
	}
	policies := []struct {
		pol  clumsy.RecoveryPolicy
		name string
	}{
		{clumsy.RecoverAbort, "abort"},
		{clumsy.RecoverDrop, "drop"},
		{clumsy.RecoverDegrade, "degrade"},
	}
	regimes := []struct {
		reg  clumsy.FaultRegime
		name string
	}{
		{clumsy.RegimePaper, "paper"},
		{clumsy.RegimeBurst, "burst"},
		{clumsy.RegimePermanent, "permanent"},
	}
	var out []simCase
	for _, app := range names {
		for _, p := range policies {
			for _, r := range regimes {
				out = append(out, simCase{app: app, policy: p.pol, polName: p.name,
					regime: r.reg, regName: r.name})
			}
		}
	}
	return out
}

// Run executes the full benchmark suite and returns the snapshot.
func Run(opts Options) (*Snapshot, error) {
	mode := "full"
	packets, samples := 400, 5
	if opts.Quick {
		mode = "quick"
		packets, samples = 150, 3
	}
	if opts.Samples > 0 {
		samples = opts.Samples
	}
	snap := &Snapshot{
		Schema:  SchemaVersion,
		Created: time.Now().UTC().Format(time.RFC3339), //lint:wallclock-ok — snapshot timestamp, reporting only
		Mode:    mode,
		Env:     CaptureEnv(),
	}
	for _, sc := range matrix(opts.Quick) {
		c, err := runSimCase(sc, packets, samples)
		if err != nil {
			return nil, fmt.Errorf("bench case %s: %w", c.Name, err)
		}
		snap.Cases = append(snap.Cases, *c)
		progress(opts.Progress, c)
	}
	for _, fc := range fleetCases(opts.Quick) {
		c, err := runFleetCase(fc, samples)
		if err != nil {
			return nil, fmt.Errorf("bench case %s: %w", c.Name, err)
		}
		snap.Cases = append(snap.Cases, *c)
		progress(opts.Progress, c)
	}
	for _, mc := range microCases() {
		c := runMicroCase(mc, samples)
		snap.Cases = append(snap.Cases, *c)
		progress(opts.Progress, c)
	}
	return snap, nil
}

func progress(w io.Writer, c *Case) {
	if w == nil {
		return
	}
	if ns, ok := c.Metrics["ns_per_packet"]; ok {
		fmt.Fprintf(w, "%-32s %10.0f ns/packet\n", c.Name, ns.Median)
		return
	}
	if ns, ok := c.Metrics["ns_per_op"]; ok {
		fmt.Fprintf(w, "%-32s %10.1f ns/op\n", c.Name, ns.Median)
	}
}

// runSimCase measures one matrix cell: N timed clumsy.Run invocations of
// the same seeded configuration.
func runSimCase(sc simCase, packets, samples int) (*Case, error) {
	cfg := clumsy.Config{
		App:        sc.app,
		Packets:    packets,
		Seed:       benchSeed,
		FaultScale: 25,
		CycleTime:  0.5,
		Detection:  cache.DetectionParity,
		Strikes:    2,
		Recovery:   sc.policy,
		Regime:     sc.regime,
	}
	c := &Case{
		Name:    fmt.Sprintf("sim/%s/%s/%s", sc.app, sc.polName, sc.regName),
		Packets: packets,
		Samples: samples,
		Metrics: map[string]Stat{},
	}
	nsSamples := make([]float64, 0, samples)
	ppsSamples := make([]float64, 0, samples)
	allocSamples := make([]float64, 0, samples)
	var last *clumsy.Result
	for i := 0; i < samples+1; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now() //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		res, err := clumsy.Run(cfg)
		elapsed := time.Since(start) //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return c, err
		}
		if i == 0 {
			continue // warm-up sample: discard
		}
		last = res
		perPkt := float64(elapsed.Nanoseconds()) / float64(packets)
		nsSamples = append(nsSamples, perPkt)
		ppsSamples = append(ppsSamples, 1e9/perPkt)
		allocSamples = append(allocSamples, float64(ms1.Mallocs-ms0.Mallocs)/float64(packets))
	}
	c.Metrics["ns_per_packet"] = summarize("ns", BetterLower, nsSamples)
	c.Metrics["packets_per_sec"] = summarize("pkt/s", BetterHigher, ppsSamples)
	c.Metrics["allocs_per_packet"] = summarize("allocs", BetterLower, allocSamples)

	// Simulated quantities are deterministic for a fixed seed: record the
	// last sample's values as exact metrics. They do not gate comparisons
	// but make cost-model drift visible in the diff.
	pkts := float64(packets)
	exact := func(v float64) Stat {
		return Stat{Unit: "1/pkt", Better: BetterExact, Min: v, Median: v, Mean: v}
	}
	c.Metrics["instrs_per_packet"] = exact(float64(last.Instrs) / pkts)
	c.Metrics["cycles_per_packet"] = exact(last.Cycles / pkts)
	bd := last.Breakdown
	c.Metrics["cycles_compute_per_packet"] = exact(bd.Compute / pkts)
	c.Metrics["cycles_l1d_stall_per_packet"] = exact(bd.L1D / pkts)
	c.Metrics["cycles_l1i_stall_per_packet"] = exact(bd.L1I / pkts)
	c.Metrics["cycles_l2_stall_per_packet"] = exact(bd.L2 / pkts)
	c.Metrics["cycles_mem_stall_per_packet"] = exact(bd.Mem / pkts)
	c.Metrics["cycles_recovery_per_packet"] = exact(bd.Recovery / pkts)
	c.Metrics["cycles_freq_penalty_per_packet"] = exact(bd.FreqPenalty / pkts)
	return c, nil
}

// fleetCase is one fleet-serving cell of the benchmark matrix: a whole
// virtual-time cluster simulation (dispatcher, per-node engines, health
// machine) measured end to end.
type fleetCase struct {
	name string
	cfg  cluster.Config
}

// fleetCases builds the fleet case family. The hostile cells use the same
// terminal-node knobs as the fleet degradation study, so the benchmark
// exercises the full lifecycle: drain, re-clock, probation, death,
// failover. Quick mode keeps one clean and one hostile cell.
func fleetCases(quick bool) []fleetCase {
	packets := 800
	if quick {
		packets = 300
	}
	mk := func(label string, nodes, faulty int, pol cluster.DispatchPolicy) fleetCase {
		return fleetCase{
			name: "fleet/route/" + label,
			cfg: cluster.Config{
				App: "route", Nodes: nodes, Packets: packets, Seed: benchSeed,
				Dispatch: pol, FaultyNodes: faulty, FaultyScale: 150, FaultyPreDisable: 0.10,
				Health: cluster.HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625},
			},
		}
	}
	cases := []fleetCase{
		mk("4x-clean-flow", 4, 0, cluster.DispatchFlowHash),
		mk("8x-faulty2-least", 8, 2, cluster.DispatchLeastLoaded),
	}
	if !quick {
		cases = append(cases, mk("8x-faulty6-least", 8, 6, cluster.DispatchLeastLoaded))
	}
	return cases
}

// runFleetCase measures one fleet cell: N timed cluster.Run invocations of
// the same seeded configuration.
func runFleetCase(fc fleetCase, samples int) (*Case, error) {
	packets := fc.cfg.Packets
	c := &Case{Name: fc.name, Packets: packets, Samples: samples, Metrics: map[string]Stat{}}
	nsSamples := make([]float64, 0, samples)
	ppsSamples := make([]float64, 0, samples)
	allocSamples := make([]float64, 0, samples)
	var last *cluster.Report
	for i := 0; i < samples+1; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now() //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		r, err := cluster.Run(fc.cfg)
		elapsed := time.Since(start) //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return c, err
		}
		if i == 0 {
			continue // warm-up sample: discard
		}
		last = r
		perPkt := float64(elapsed.Nanoseconds()) / float64(packets)
		nsSamples = append(nsSamples, perPkt)
		ppsSamples = append(ppsSamples, 1e9/perPkt)
		allocSamples = append(allocSamples, float64(ms1.Mallocs-ms0.Mallocs)/float64(packets))
	}
	c.Metrics["ns_per_packet"] = summarize("ns", BetterLower, nsSamples)
	c.Metrics["packets_per_sec"] = summarize("pkt/s", BetterHigher, ppsSamples)
	c.Metrics["allocs_per_packet"] = summarize("allocs", BetterLower, allocSamples)

	// Fleet outcomes are deterministic for a fixed seed: record them as
	// exact metrics so behavioural drift shows up in the diff.
	exact := func(unit string, v float64) Stat {
		return Stat{Unit: unit, Better: BetterExact, Min: v, Median: v, Mean: v}
	}
	c.Metrics["fleet_drop_rate"] = exact("frac", last.FleetDropRate)
	c.Metrics["slo_attainment"] = exact("frac", last.Attainment)
	c.Metrics["p99_latency_ticks"] = exact("ticks", last.P99Latency)
	c.Metrics["deaths"] = exact("nodes", float64(last.Deaths))
	c.Metrics["nodes_live"] = exact("nodes", float64(last.NodesLive))
	return c, nil
}

// microCase is one telemetry hot-path micro-benchmark.
type microCase struct {
	name string
	iter int
	body func(n int)
}

// microCases benchmarks the telemetry primitives whose cost bounds the
// observability overhead: counter increments, histogram observes, and
// structured trace emission into a discarded JSONL sink.
func microCases() []microCase {
	return []microCase{
		{
			name: "telemetry/counter_add",
			iter: 1 << 20,
			body: func(n int) {
				reg := telemetry.NewRegistry()
				ctr := reg.Counter(telemetry.CtrRunCycles)
				for i := 0; i < n; i++ {
					ctr.Add(uint64(i))
				}
			},
		},
		{
			name: "telemetry/histogram_observe",
			iter: 1 << 20,
			body: func(n int) {
				reg := telemetry.NewRegistry()
				h := reg.Histogram(telemetry.HistPacketCycles)
				for i := 0; i < n; i++ {
					h.Observe(uint64(i))
				}
			},
		},
		{
			name: "telemetry/trace_emit",
			iter: 1 << 16,
			body: func(n int) {
				tel := telemetry.New()
				tel.SetSink(telemetry.NewJSONLSink(io.Discard))
				rt := tel.StartRun(nil)
				for i := 0; i < n; i++ {
					rt.FaultInjection("read", 1, uint64(i))
				}
			},
		},
	}
}

// runMicroCase times one micro-benchmark body.
func runMicroCase(mc microCase, samples int) *Case {
	c := &Case{Name: mc.name, Samples: samples, Metrics: map[string]Stat{}}
	nsSamples := make([]float64, 0, samples)
	allocSamples := make([]float64, 0, samples)
	for i := 0; i < samples+1; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now() //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		mc.body(mc.iter)
		elapsed := time.Since(start) //lint:wallclock-ok — wall-clock benchmark timing, never feeds simulated state
		runtime.ReadMemStats(&ms1)
		if i == 0 {
			continue
		}
		nsSamples = append(nsSamples, float64(elapsed.Nanoseconds())/float64(mc.iter))
		allocSamples = append(allocSamples, float64(ms1.Mallocs-ms0.Mallocs)/float64(mc.iter))
	}
	c.Metrics["ns_per_op"] = summarize("ns", BetterLower, nsSamples)
	c.Metrics["allocs_per_op"] = summarize("allocs", BetterLower, allocSamples)
	return c
}
