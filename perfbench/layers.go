package main

import (
	"fmt"
	"time"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/circuit"
	"clumsy/internal/clumsy"
	"clumsy/internal/experiment"
	"clumsy/internal/fault"
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// The traced run. Spans are recorded here, around calls into each layer's
// public functions; nothing inside the simulator is instrumented. Every
// traced run emits the full set of per-layer metrics:
//
//   - The phases of one run (trace generation, address space, golden pass,
//     node open, per-packet Process) and the fixed-cost fit replay the
//     traced workload's own single-processor configuration: the workload's
//     run for paper-long and contain-long, one route cell of the EDF grid
//     for study-short, and a healthy fleet node for fleet-long.
//   - Micro-timings use the geometry, detection and regime of the workload
//     they are attributed to: L1D, DMA, fault sampling and radix lookup that
//     of paper-long; checkpoints and cache snapshots that of contain-long.
//   - experiment.* comes from studies of study-short and cluster.* from
//     fleets of fleet-long, run in every traced run.

// seeds hands out seeds no other operation of this process uses.
type seeds struct{ next uint64 }

func newSeeds(seed uint64) *seeds { return &seeds{next: 1<<42 | seed<<20} }

func (s *seeds) take() uint64 { s.next++; return s.next }

// traced measures the per-layer metrics of workload w for o.seconds.
func traced(w *workload, ws []*workload, o options, chk *checker) map[string]metric {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	sd := newSeeds(o.seed)
	m := map[string]metric{}
	study, _ := findWorkload(ws, "study-short")
	fleet, _ := findWorkload(ws, "fleet-long")

	// Counts come from the first successful operation; they read 0 only if
	// none succeeded, which the failure count reports.
	for name, unit := range map[string]string{
		"cache.l1d_miss_ratio": "fraction", "cache.l1d_accesses": "count", "clumsy.contained": "count",
		"clumsy.restored_pages": "count", "clumsy.packets": "count", "cluster.deaths": "count",
		"cluster.arrivals": "count", "cluster.shed_frac": "fraction",
	} {
		m[name] = metric{0, unit}
	}
	microMetrics(m, ws, chk)
	iter := 0
	own := func() (uint64, bool) { s, p := iterSeed(w.pool, o.seed, iter); iter++; return s, p }

	// Repetitions run until the time is up, and at least minReps times.
	const minReps = 3
	var (
		runs, fits, golden, open, procSum, wallT, wallU, spaces, gens []float64
		samples                                                       []float64
		studyT, studyU                                                []float64
		fleetFull, fleetShort                                         []float64
		grid                                                          gridTimer
		counted                                                       bool
	)
	mon := &telemetry.RunMonitor{OnProgress: grid.observe}
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		// experiment.*: one monitored study per traced run; study-short
		// alternates monitored and plain studies of its own seeds to give
		// the tracing overhead.
		if w == study || rep == 0 {
			seed, pooled := sd.take(), false
			if w == study {
				seed, pooled = own()
			}
			experiment.SetMonitor(mon)
			d, ok := timeOp(chk, study, seed, pooled)
			experiment.SetMonitor(nil)
			if ok {
				studyT = append(studyT, d)
			}
		}
		if w == study {
			seed, pooled := own()
			if d, ok := timeOp(chk, study, seed, pooled); ok {
				studyU = append(studyU, d)
			}
		}

		// cluster.*: fleets at two arrival counts give the fixed cost and
		// the cost per arrival.
		if w == fleet || rep == 0 {
			cfg := fleet.fleet
			pooled := false
			cfg.Seed = sd.take()
			if w == fleet {
				cfg.Seed, pooled = own()
			}
			start := time.Now()
			rp, digest, err := fleetRun(cfg)
			d := time.Since(start)
			if chk.check("fleet", cfg.Seed, d, pooled, digest, err) {
				fleetFull = append(fleetFull, d.Seconds())
				if len(fleetFull) == 1 {
					m["cluster.deaths"] = metric{float64(rp.Deaths), "count"}
					m["cluster.arrivals"] = metric{float64(rp.Arrivals), "count"}
					m["cluster.shed_frac"] = metric{float64(rp.Shed) / float64(rp.Arrivals), "fraction"}
				}
			}
			cfg.Seed = sd.take()
			cfg.Packets = fleet.subject.fitLength
			start = time.Now()
			_, digest, err = fleetRun(cfg)
			d = time.Since(start)
			if chk.check("fleet fit", cfg.Seed, d, false, digest, err) {
				fleetShort = append(fleetShort, d.Seconds())
			}
		}

		// The subject: untraced runs at two lengths, then the same run
		// replayed through the node API with and without per-call spans.
		cfg := w.subject.cfg
		cfg.Seed = sd.take()
		start := time.Now()
		res, digest, err := run(cfg)
		if d := time.Since(start); chk.check("run", cfg.Seed, d, false, digest, err) {
			runs = append(runs, d.Seconds())
			if !counted {
				counted = true
				m["cache.l1d_miss_ratio"] = metric{res.L1DStats.MissRate(), "fraction"}
				m["cache.l1d_accesses"] = metric{float64(res.L1DStats.Accesses()), "count"}
				m["clumsy.contained"] = metric{float64(res.Contained), "count"}
				m["clumsy.restored_pages"] = metric{float64(res.RestoredPages), "count"}
				m["clumsy.packets"] = metric{float64(cfg.Packets), "count"}
			}
		}
		fit := w.subject.cfg
		fit.Packets = w.subject.fitLength
		fit.Seed = sd.take()
		start = time.Now()
		_, digest, err = run(fit)
		if d := time.Since(start); chk.check("run fit", fit.Seed, d, false, digest, err) {
			fits = append(fits, d.Seconds())
		}

		cfg.Seed = sd.take()
		ph, err := replay(cfg, &samples)
		if chk.check("traced replay", cfg.Seed, ph.wall, false, "-", err) {
			gens = append(gens, ph.generate.Seconds())
			spaces = append(spaces, ph.newSpace.Seconds())
			golden = append(golden, ph.golden.Seconds())
			open = append(open, ph.open.Seconds())
			procSum = append(procSum, ph.process.Seconds())
			wallT = append(wallT, ph.wall.Seconds())
		}
		cfg.Seed = sd.take()
		ph, err = replay(cfg, nil)
		if chk.check("replay", cfg.Seed, ph.wall, false, "-", err) {
			wallU = append(wallU, ph.wall.Seconds())
		}
	}

	ms := func(xs []float64) float64 { return median(xs) * 1e3 }
	m["packet.generate_ms"] = metric{ms(gens), "ms"}
	m["simmem.new_space_ms"] = metric{ms(spaces), "ms"}
	m["clumsy.golden_ms"] = metric{ms(golden), "ms"}
	m["clumsy.open_node_ms"] = metric{ms(open), "ms"}
	m["clumsy.process_ns_p50"] = metric{quantile(samples, 0.5), "ns"}
	m["clumsy.process_ns_p99"] = metric{quantile(samples, 0.99), "ns"}
	m["clumsy.process_samples"] = metric{float64(len(samples)), "count"}
	fixed, slope := fitLine(float64(w.subject.cfg.Packets), median(runs), float64(w.subject.fitLength), median(fits))
	m["clumsy.fixed_ms"] = metric{fixed * 1e3, "ms"}
	m["clumsy.steady_ns_per_pkt"] = metric{slope * 1e9, "ns/pkt"}
	m["clumsy.attributed_frac"] = metric{(median(golden) + median(open) + median(procSum)) / median(runs), "fraction"}
	if w == study {
		m["trace.overhead_frac"] = metric{median(studyT)/median(studyU) - 1, "fraction"}
	} else {
		m["trace.overhead_frac"] = metric{median(wallT)/median(wallU) - 1, "fraction"}
	}

	cfixed, cslope := fitLine(float64(fleet.fleet.Packets), median(fleetFull), float64(fleet.subject.fitLength), median(fleetShort))
	m["cluster.fixed_ms"] = metric{cfixed * 1e3, "ms"}
	m["cluster.ns_per_arrival"] = metric{cslope * 1e9, "ns/arrival"}

	m["experiment.cell_ms_p50"] = metric{quantile(grid.cells, 0.5), "ms"}
	m["experiment.cell_ms_p90"] = metric{quantile(grid.cells, 0.9), "ms"}
	m["experiment.cells"] = metric{float64(len(grid.cells)), "count"}
	m["experiment.worker_util"] = metric{grid.utilization(), "fraction"}

	m["failed_frac"] = metric{float64(chk.failed) / float64(max(chk.attempted, 1)), "fraction"}
	chk.logf("%s traced: %d checks, %d failed", w.name, chk.attempted, chk.failed)
	return m
}

// timeOp runs one operation of w and returns its wall seconds and whether
// it passed its checks.
func timeOp(chk *checker, w *workload, seed uint64, pooled bool) (float64, bool) {
	start := time.Now()
	_, digest, err := w.op(seed)
	d := time.Since(start)
	return d.Seconds(), chk.check(w.name, seed, d, pooled, digest, err)
}

// fitLine returns the intercept and slope of the line through (x1, y1)
// and (x2, y2).
func fitLine(x1, y1, x2, y2 float64) (intercept, slope float64) {
	slope = (y2 - y1) / (x2 - x1)
	return y1 - slope*x1, slope
}

// gridTimer collects per-cell wall times and worker utilisation from the
// experiment grid's RunMonitor. The monitor calls observe under its lock,
// one call per completed cell.
type gridTimer struct {
	cells          []float64 // milliseconds per grid cell
	last           time.Duration
	busy, capacity time.Duration
}

func (g *gridTimer) observe(p telemetry.Progress) {
	if p.Done == 1 {
		g.last = 0 // Begin of a new grid reset the busy total
	}
	g.cells = append(g.cells, float64(p.Busy-g.last)/1e6)
	g.last = p.Busy
	if p.Done == p.Total {
		g.busy += p.Busy
		g.capacity += p.Elapsed * time.Duration(p.Workers)
	}
}

func (g *gridTimer) utilization() float64 {
	if g.capacity <= 0 {
		return 0
	}
	return float64(g.busy) / float64(g.capacity)
}

// phases are the host times of one run replayed through the node API.
type phases struct {
	generate, newSpace, golden, open, process, wall time.Duration
}

// replay serves cfg's trace through clumsy.Calibrate (the golden pass),
// clumsy.OpenNode and one Node.Process per packet. With samples non-nil
// every Process call is timed and appended to it; otherwise only the loop
// as a whole is timed. The address-space allocation is timed on its own
// and is not part of wall.
func replay(cfg clumsy.Config, samples *[]float64) (phases, error) {
	var ph phases
	start := time.Now()
	app, err := apps.New(cfg.App)
	if err != nil {
		return ph, err
	}
	t := time.Now()
	tr, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
	ph.generate = time.Since(t)
	if err != nil {
		return ph, err
	}
	t = time.Now()
	cal, err := clumsy.Calibrate(cfg, tr)
	ph.golden = time.Since(t)
	if err != nil {
		return ph, err
	}
	t = time.Now()
	node, err := clumsy.OpenNode(cfg, tr, cal)
	ph.open = time.Since(t)
	if err != nil {
		return ph, err
	}
	defer node.Close()
	served := 0
	if samples != nil {
		for i := range tr.Packets {
			t := time.Now()
			out, err := node.Process(&tr.Packets[i])
			d := time.Since(t)
			if err != nil {
				return ph, err
			}
			*samples = append(*samples, float64(d.Nanoseconds()))
			ph.process += d
			served++
			if out.Fatal {
				break
			}
		}
	} else {
		t := time.Now()
		for i := range tr.Packets {
			out, err := node.Process(&tr.Packets[i])
			if err != nil {
				return ph, err
			}
			served++
			if out.Fatal {
				break
			}
		}
		ph.process = time.Since(t)
	}
	ph.wall = time.Since(start)
	if served != len(tr.Packets) {
		return ph, fmt.Errorf("node died after %d of %d packets: %v", served, len(tr.Packets), node.FatalErr())
	}
	t = time.Now()
	_ = simmem.NewSpace(spaceBytes(tr))
	ph.newSpace = time.Since(t)
	return ph, nil
}

// spaceBytes is the simulated memory a run of the trace allocates: 8 MiB
// of tables plus every packet buffer, rounded up to a whole MiB (the
// sizing clumsy.Run applies when Config.SpaceBytes is zero).
func spaceBytes(tr *packet.Trace) int {
	total := 8 << 20
	for i := range tr.Packets {
		total += max((tr.Packets[i].WireLen()+31)&^31, 32)
	}
	return (total + 1<<20) &^ (1<<20 - 1)
}

// microMetrics times the layers' hot calls in isolation. They run with
// fault injection on, so a call may return the error of an injected
// fault; handling it is part of the work timed, and the error is dropped.
func microMetrics(m map[string]metric, ws []*workload, chk *checker) {
	m["circuit.calibrate_ms"] = metric{perCall(5, func() { circuit.DefaultCell() }) / 1e6, "ms"}

	// paper-long geometry: 4 KB direct-mapped L1D, two-strike parity, Cr
	// 0.5, the paper's fault process at scale 1, injection on.
	paper, _ := findWorkload(ws, "paper-long")
	pc := paper.subject.cfg
	inj := fault.NewInjector(fault.NewModel(pc.FaultScale), fault.NewRNG(1).Fork(0xfa17), 32)
	h := hierarchy(1<<24, inj, pc)
	a := h.Space.MustAlloc(64, 32)
	_ = h.L1D.Store32(a, 1)
	m["cache.l1d_hit_ns"] = metric{nsPerCall(200000, func(int) { _, _ = h.L1D.Load32(a) }), "ns"}
	m["cache.l1d_store_ns"] = metric{nsPerCall(200000, func(i int) { _ = h.L1D.Store32(a, uint32(i)) }), "ns"}
	region := h.Space.MustAlloc(1<<20, 32)
	m["cache.l1d_miss_ns"] = metric{nsPerCall(100000, func(i int) {
		_, _ = h.L1D.Load32(region + simmem.Addr(i*32)%(1<<20))
	}), "ns"}
	buf := h.Space.MustAlloc(256, 32)
	wire := make([]byte, 160) // a mid-size route packet: header + payload
	m["cache.dma_ns"] = metric{nsPerCall(50000, func(int) { _ = h.DMA(buf, wire) }), "ns"}
	m["fault.next_ns"] = metric{nsPerCall(500000, func(i int) { inj.NextAt(uint64(i)) }), "ns"}

	prefixes := packet.GeneratePrefixes(300, fault.NewRNG(2))
	tab, err := radix.New(h.Space, h.L1D)
	for i := 0; err == nil && i < len(prefixes); i++ {
		err = tab.Insert(h.L1D, prefixes[i], uint32(i+1), uint32(i%8))
	}
	if err != nil {
		chk.fail("radix table build", err)
	} else {
		m["radix.lookup_ns"] = metric{nsPerCall(20000, func(i int) {
			_, _ = tab.Lookup(h.L1D, prefixes[i%len(prefixes)].Addr|uint32(i)&0xff, nil)
		}), "ns"}
	}

	// contain-long geometry: the same cache under the burst process with
	// the line-disable rung armed, over the address space of its trace.
	contain, _ := findWorkload(ws, "contain-long")
	cc := contain.subject.cfg
	app, _ := apps.New(cc.App)
	tr := packet.MustGenerate(app.TraceConfig(cc.Packets, 1))
	burst := fault.NewBurst(fault.NewModel(cc.FaultScale), fault.NewRNG(1).Fork(0xfa17), 32, fault.DefaultBurstParams())
	hc := hierarchy(spaceBytes(tr), burst, cc)
	hc.L1D.SetLineDisable(clumsy.DefaultLineDisableStrikes, clumsy.DefaultLineDisableWindow)
	sp := hc.Space
	m["simmem.new_checkpoint_ms"] = metric{perCall(5, func() { sp.NewCheckpoint().Release() }) / 1e6, "ms"}

	// Warm every cache level, then time the per-packet boundary work: a
	// packet dirties a couple of pages and a few cache lines.
	warm := sp.MustAlloc(256<<10, 32)
	for off := simmem.Addr(0); off < 256<<10; off += 32 {
		_, _ = hc.L1D.Load32(warm + off)
	}
	ck := sp.NewCheckpoint()
	defer ck.Release()
	snap := hc.Snapshot(nil)
	touch := func(i int) {
		page := warm + simmem.Addr(i%32)*simmem.PageSize
		_ = sp.Store32(page, uint32(i))
		_ = sp.Store32(page+simmem.PageSize*40, uint32(i))
		for l := simmem.Addr(0); l < 8; l++ {
			_ = hc.L1D.Store32(warm+simmem.Addr(i%512)*256+l*32, uint32(i))
		}
	}
	m["simmem.commit_us"] = metric{timedCalls(400, touch, func() { ck.Commit() }) / 1e3, "us"}
	m["simmem.restore_us"] = metric{timedCalls(400, touch, func() { ck.Restore() }) / 1e3, "us"}
	m["cache.snapshot_us"] = metric{timedCalls(400, touch, func() { snap = hc.Snapshot(snap) }) / 1e3, "us"}
	m["cache.restore_us"] = metric{timedCalls(400, touch, func() { hc.RestoreSnapshot(snap) }) / 1e3, "us"}
}

// hierarchy builds a cache hierarchy with cfg's detection and cycle time
// over a fresh address space, with the fault process enabled.
func hierarchy(spaceBytes int, proc fault.Process, cfg clumsy.Config) *cache.Hierarchy {
	h, err := cache.NewHierarchy(simmem.NewSpace(spaceBytes), proc, cfg.Detection, cfg.Strikes)
	if err != nil {
		panic(err) // the default geometry with a valid detection is always accepted
	}
	h.L1D.SetCycleTime(cfg.CycleTime)
	proc.SetEnabled(true)
	return h
}

// nsPerCall returns the median over seven batches of the nanoseconds one
// call of f takes, in batches of n calls.
func nsPerCall(n int, f func(i int)) float64 {
	xs := make([]float64, 7)
	for r := range xs {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		xs[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// perCall returns the median nanoseconds of n single calls of f.
func perCall(n int, f func()) float64 { return timedCalls(n, func(int) {}, f) }

// timedCalls returns the median nanoseconds of f over n calls, running
// prep(i) untimed before each.
func timedCalls(n int, prep func(i int), f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		prep(i)
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(xs)
}
