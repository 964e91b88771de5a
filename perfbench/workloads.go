package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/cluster"
	"clumsy/internal/experiment"
)

// sizes are the lengths that set how much work one operation does. The
// full sizes are the benchmark's; the small ones let the self-test run
// every workload in seconds.
type sizes struct {
	studyPackets  int // packets per run of the EDF study
	runPackets    int // trace length of the long single runs
	shortPackets  int // second trace length of the fixed-cost fit
	fleetArrivals int // arrivals of one fleet run
}

var (
	fullSizes  = sizes{studyPackets: 200, runPackets: 30000, shortPackets: 1000, fleetArrivals: 20000}
	smallSizes = sizes{studyPackets: 40, runPackets: 1500, shortPackets: 300, fleetArrivals: 1500}
)

// definition is everything that decides what one operation of a workload
// simulates. Its hash keys the pinned digests, so a changed definition can
// never be checked against digests made for another one.
type definition struct {
	Kind       string  `json:"kind"`
	App        string  `json:"app"`
	Policy     string  `json:"policy"`
	Regime     string  `json:"regime"`
	Detection  string  `json:"detection"`
	CycleTime  string  `json:"cycle_time"`
	FaultScale float64 `json:"fault_scale"`
	Packets    int     `json:"packets"`
	Trials     int     `json:"trials,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Faulty     int     `json:"faulty_nodes,omitempty"`
	Dispatch   string  `json:"dispatch,omitempty"`
}

// key hashes the definition; it names the pinned digests.
func (d definition) key() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return shortHash(b)
}

// subject is the single-processor configuration a traced run replays
// through the node API to split one run into its phases. Its Packets is
// the workload's own trace length.
type subject struct {
	cfg       clumsy.Config
	fitLength int // second trace length of the fixed-cost fit
}

// opFunc runs one operation at seed and returns the input-trace packets
// it covered, the digest of its exact simulated output, and an error when
// the call failed or its output broke a structural check.
type opFunc func(seed uint64) (int, string, error)

// workload is one closed-loop benchmark workload: one client issues an
// operation, waits for it, and issues the next.
type workload struct {
	name string
	why  string
	def  definition
	// pool is the number of iteration seeds whose digests are pinned.
	pool    int
	op      opFunc
	subject subject
	fleet   cluster.Config // the fleet of fleet-long, fitted by every traced run
}

// workloads returns the benchmark's workloads at the given sizes.
func workloads(sz sizes) []*workload {
	paper := clumsy.Config{
		App: "route", Packets: sz.runPackets, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, FaultScale: 1,
	}
	contain := paper
	contain.Recovery = clumsy.RecoverDegrade
	contain.Regime = clumsy.RegimeBurst

	// A representative cell of the EDF grid: the study's trace length,
	// fault scale and policy, at the paper's most interesting point.
	cell := paper
	cell.Packets = sz.studyPackets
	cell.FaultScale = experiment.EDFFaultScale

	fleet := cluster.Config{
		App: "route", Nodes: 8, Packets: sz.fleetArrivals,
		Dispatch: cluster.DispatchLeastLoaded, FaultyNodes: 2,
		FaultScale: 1, FaultyScale: 150, FaultyPreDisable: 0.10,
		Health: cluster.HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625},
	}
	// The configuration of a healthy fleet node (cluster defaults: static
	// Cr 0.5, two-strike parity, data-plane faults, degrade policy).
	node := clumsy.Config{
		App: "route", Packets: sz.fleetArrivals, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 2, FaultScale: 1,
		Planes: clumsy.PlaneData, Recovery: clumsy.RecoverDegrade,
	}

	return []*workload{
		{
			name: "study-short",
			why:  "EDF study on short traces: fixed per-run cost (calibration, address spaces, app setup, golden pass) dominates",
			def: definition{
				Kind: "study", App: fmt.Sprintf("all(%d)", len(apps.Names())), Policy: "abort", Regime: "paper",
				Detection: "4 schemes", CycleTime: "5 settings", FaultScale: experiment.EDFFaultScale,
				Packets: sz.studyPackets, Trials: 1,
			},
			pool:    128,
			op:      studyOp(sz.studyPackets),
			subject: subject{cfg: cell, fitLength: sz.studyPackets * 10},
		},
		{
			name:    "paper-long",
			why:     "one long route run under abort and the paper regime: steady-state L1D, fault sampling, radix and golden pass",
			def:     runDefinition(paper),
			pool:    256,
			op:      runOp(paper),
			subject: subject{cfg: paper, fitLength: sz.shortPackets},
		},
		{
			name:    "contain-long",
			why:     "the paper-long run under degrade and burst: adds the per-packet checkpoint commit and cache snapshot",
			def:     runDefinition(contain),
			pool:    96,
			op:      runOp(contain),
			subject: subject{cfg: contain, fitLength: sz.shortPackets},
		},
		{
			name: "fleet-long",
			why:  "one 8-node fleet run with 2 faulty nodes: dispatch, health FSM, failover and per-node opens",
			def: definition{
				Kind: "fleet", App: fleet.App, Policy: "degrade", Regime: "paper+permanent",
				Detection: "parity", CycleTime: "0.5", FaultScale: fleet.FaultScale,
				Packets: fleet.Packets, Nodes: fleet.Nodes, Faulty: fleet.FaultyNodes,
				Dispatch: fleet.Dispatch.String(),
			},
			pool:    96,
			op:      fleetOp(fleet),
			subject: subject{cfg: node, fitLength: sz.shortPackets},
			fleet:   fleet,
		},
	}
}

func runDefinition(c clumsy.Config) definition {
	return definition{
		Kind: "run", App: c.App, Policy: c.Recovery.String(), Regime: c.Regime.String(),
		Detection: fmt.Sprintf("%v/%d", c.Detection, c.Strikes), CycleTime: fmt.Sprint(c.CycleTime),
		FaultScale: c.FaultScale, Packets: c.Packets,
	}
}

// findWorkload returns the named workload.
func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// runOp is one clumsy.Run: golden and faulty pass over a fresh trace.
func runOp(base clumsy.Config) opFunc {
	return func(seed uint64) (int, string, error) {
		cfg := base
		cfg.Seed = seed
		_, digest, err := run(cfg)
		return cfg.Packets, digest, err
	}
}

// run executes one clumsy.Run and returns its result, the digest of its
// exact outputs, and any failure of the call or of the structural checks.
func run(cfg clumsy.Config) (*clumsy.Result, string, error) {
	res, err := clumsy.Run(cfg)
	if err != nil {
		return nil, "", err
	}
	return res, resultDigest(res), checkResult(res, cfg.Packets)
}

// resultDigest hashes every exact simulated output of a run: cycles,
// instructions, the cycle breakdown, energy, cache and recovery counters,
// the golden-vs-faulty report, the drop and ladder counters and the
// frequency timeline. Floats print in their shortest exact form.
func resultDigest(res *clumsy.Result) string {
	r := *res
	r.Config.Telemetry = nil
	fatal := ""
	if r.FatalErr != nil {
		fatal = r.FatalErr.Error()
	}
	r.FatalErr = nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v\nfatal=%s\n", r, fatal)
	return sumHex(h)
}

// checkResult applies the structural checks every run must pass: the
// buckets partition the cycles exactly, and the whole trace was served.
func checkResult(res *clumsy.Result, packets int) error {
	switch {
	case res.Breakdown.Total() != res.Cycles:
		return fmt.Errorf("cycle breakdown sums to %v, want %v", res.Breakdown.Total(), res.Cycles)
	case res.FatalErr != nil:
		return fmt.Errorf("run died: %v", res.FatalErr)
	case res.Report.GoldenPackets != packets:
		return fmt.Errorf("golden pass served %d packets, want %d", res.Report.GoldenPackets, packets)
	case res.Report.Processed+res.Report.Dropped != packets:
		return fmt.Errorf("faulty pass resolved %d+%d packets, want %d", res.Report.Processed, res.Report.Dropped, packets)
	}
	return nil
}

// studyOp is one experiment.AllEDF study: every paper app on the full
// scheme x setting grid, one trial, run across GOMAXPROCS workers.
func studyOp(packets int) opFunc {
	return func(seed uint64) (int, string, error) {
		o := experiment.Options{Packets: packets, Trials: 1, Seed: seed}
		results, err := experiment.AllEDF(o)
		if err != nil {
			return 0, "", err
		}
		h := sha256.New()
		cells := 0
		var bad error
		for _, r := range results {
			fmt.Fprintf(h, "%+v\n", *r)
			experiment.EDFRender(r, "EDF", o).Render(h)
			if r.App == "average" {
				continue
			}
			cells += len(r.Cells)
			if !(r.Baseline > 0) {
				bad = errors.Join(bad, fmt.Errorf("%s: baseline EDF %v", r.App, r.Baseline))
			}
			for _, c := range r.Cells {
				if math.IsNaN(c.Relative) || math.IsInf(c.Relative, 0) || c.Relative <= 0 {
					bad = errors.Join(bad, fmt.Errorf("%s %s/%s: relative EDF %v", r.App, c.Scheme, c.Setting, c.Relative))
				}
			}
		}
		want := len(apps.Names()) * len(experiment.Schemes()) * len(experiment.Settings())
		if len(results) != len(apps.Names())+1 || cells != want {
			bad = errors.Join(bad, fmt.Errorf("study returned %d grids with %d cells, want %d grids with %d",
				len(results), cells, len(apps.Names())+1, want))
		}
		return cells * o.Trials * packets, sumHex(h), bad
	}
}

// fleetOp is one cluster.Run.
func fleetOp(base cluster.Config) opFunc {
	return func(seed uint64) (int, string, error) {
		cfg := base
		cfg.Seed = seed
		rep, digest, err := fleetRun(cfg)
		if rep == nil {
			return 0, "", err
		}
		return rep.Completed + rep.NodeDrops + rep.Shed, digest, err
	}
}

// fleetRun executes one cluster.Run and returns its report, the digest of
// the JSON report, and any failure of the call or of the conservation
// check (every arrival completes, is dropped by a node, or is shed).
func fleetRun(cfg cluster.Config) (*cluster.Report, string, error) {
	rep, err := cluster.Run(cfg)
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	if err := rep.WriteJSON(h); err != nil {
		return nil, "", fmt.Errorf("encode fleet report: %w", err)
	}
	var bad error
	if resolved := rep.Completed + rep.NodeDrops + rep.Shed; rep.Arrivals != cfg.Packets || resolved != rep.Arrivals {
		bad = fmt.Errorf("fleet resolved %d of %d arrivals, want %d", resolved, rep.Arrivals, cfg.Packets)
	}
	return rep, sumHex(h), bad
}

func sumHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

func shortHash(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// setGOMAXPROCS pins the worker count of every workload to the CPUs the
// process may run on, and never more, and returns it.
func setGOMAXPROCS() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	return n
}
