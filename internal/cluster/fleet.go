package cluster

import (
	"fmt"
	"math"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
	"clumsy/internal/fault"
	"clumsy/internal/packet"
	"clumsy/internal/telemetry"
)

// job is one admitted packet waiting for (or in) service.
type job struct {
	idx     int     // index into the workload trace
	arrival float64 // virtual arrival time
}

// member is one node plus the fleet's bookkeeping about it.
// The lifecycle surface is the escalation ladder — startDrain, finishDrain,
// die — which must touch (or deliberately carry) every per-node field, or a
// node re-entering rotation keeps stale state from its previous life.
//
//lint:checkpoint startDrain, finishDrain, die
type member struct {
	node  *clumsy.Node
	state NodeState
	queue []job

	busy bool
	//lint:ephemeral in-flight service state, dead once the completion event fires
	busyUntil float64
	//lint:ephemeral in-flight service state, dead once the completion event fires
	cur job
	//lint:ephemeral in-flight service state, dead once the completion event fires
	out clumsy.NodeOutcome

	//lint:ephemeral capacity estimate deliberately carried across drains
	ewma float64 // EWMA service time (ticks/packet), the capacity estimate
	cr   float64 // current static operating point
	//lint:ephemeral workload property of the node, not lifecycle state
	hostile bool

	lastHealth      clumsy.NodeHealth // snapshot at the last window boundary
	windowServed    int
	cleanWindows    int
	probationServed int
	drains          int
}

// counts aggregates the fleet's scalar outcomes; they are flushed into the
// telemetry registry once at the end of the run, per the repo's
// no-hot-path-counters convention.
type counts struct {
	arrivals, admitted, dispatched, completed int
	shed, shedAdmission, shedQueueFull        int
	shedFailover, redispatched, nodeDrops     int
	degradations, drains, reclocks            int
	probations, recoveries, deaths            int
	sloViolations                             int
}

// fleet is the live simulation state.
type fleet struct {
	cfg   Config
	trace *packet.Trace
	nodes []*member

	now         float64
	arr         *fault.RNG // arrival-gap stream
	nextArrival float64
	arrIdx      int
	meanGap     float64
	sloLatency  float64
	shedDebt    float64

	counts    counts
	latencies []float64
	withinSLO int

	rt *telemetry.RunTrace
}

// Run simulates the configured fleet to completion and returns its report.
// A fixed-seed run is fully deterministic: the workload trace, arrival
// gaps, per-node fault streams, dispatch, and health decisions all derive
// from Config.Seed, so two invocations produce byte-identical reports.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	// A node the model cannot simulate fails the fleet before the trace
	// and the calibration pass, with the check's own error.
	for i := 0; i < cfg.Nodes; i++ {
		if err := cfg.nodeConfig(i).Check(); err != nil {
			return nil, err
		}
	}

	app, err := apps.New(cfg.App)
	if err != nil {
		return nil, err
	}
	tr, err := packet.Generate(app.TraceConfig(cfg.Packets, cfg.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.Workload != nil {
		// The same seeded mutation a batch run applies, so adversarial
		// traffic reaches the nodes; arrival-gap modulation happens in
		// scheduleNextArrival.
		tr = cfg.Workload.Apply(tr, cfg.Seed)
	}

	cal, err := clumsy.Calibrate(cfg.nodeConfig(0), tr)
	if err != nil {
		return nil, err
	}

	f := &fleet{
		cfg: cfg, trace: tr, arr: fault.NewRNG(cfg.Seed).Fork(0xa221),
		meanGap:    cal.Delay / (utilization * float64(cfg.Nodes)),
		sloLatency: sloLatencyDelays * cal.Delay,
	}

	// The cluster.* counters, the fleet latency histogram and node
	// health-transition events go to the process-wide hub, if any.
	tel := clumsy.DefaultTelemetry()
	f.rt = tel.StartRun(func() float64 { return f.now })

	f.nodes = make([]*member, cfg.Nodes)
	for i := range f.nodes {
		n, err := clumsy.OpenNode(cfg.nodeConfig(i), tr, cal)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		f.nodes[i] = &member{
			node:       n,
			state:      StateHealthy,
			ewma:       cal.Delay,
			cr:         cfg.CycleTime,
			hostile:    i >= cfg.Nodes-cfg.FaultyNodes,
			lastHealth: n.Health(),
		}
	}
	defer func() {
		for _, m := range f.nodes {
			m.node.Close()
		}
	}()

	f.scheduleNextArrival()
	if err := f.loop(); err != nil {
		return nil, err
	}

	// Conservation invariant: every arrival is accounted exactly once.
	if f.counts.completed+f.counts.nodeDrops+f.counts.shed != f.counts.arrivals {
		return nil, fmt.Errorf("cluster: conservation violated: %d completed + %d dropped + %d shed != %d arrivals",
			f.counts.completed, f.counts.nodeDrops, f.counts.shed, f.counts.arrivals)
	}

	f.flushTelemetry(tel)
	return f.report(), nil
}

// loop is the discrete-event core: repeatedly fire the earliest pending
// event — a service completion (lowest node index breaks ties) or the next
// arrival — until the arrival process is exhausted and the fleet is idle.
func (f *fleet) loop() error {
	for {
		// Put idle nodes with queued work into service. Draining nodes
		// keep serving their backlog; dead nodes never hold work.
		for i, m := range f.nodes {
			if !m.busy && len(m.queue) > 0 && m.state != StateDead {
				if err := f.startService(i); err != nil {
					return err
				}
			}
		}

		tA := math.Inf(1)
		if f.arrIdx < len(f.trace.Packets) {
			tA = f.nextArrival
		}
		tC, ci := math.Inf(1), -1
		for i, m := range f.nodes {
			if m.busy && m.busyUntil < tC {
				tC, ci = m.busyUntil, i
			}
		}
		switch {
		case ci < 0 && math.IsInf(tA, 1):
			return nil
		case ci >= 0 && tC <= tA:
			f.now = tC
			f.complete(ci)
		default:
			f.arrive()
		}
	}
}

func (f *fleet) scheduleNextArrival() {
	// Poisson arrivals: exponential gaps off the dedicated stream.
	gap := -math.Log(1-f.arr.Float64()) * f.meanGap
	if f.cfg.Workload != nil {
		// Temporal shape: the local intensity scales the arrival rate, so
		// gaps compress inside a flash crowd and stretch through a trough.
		// RateAt is bounded away from zero, so gaps stay finite.
		frac := float64(f.arrIdx) / float64(len(f.trace.Packets))
		gap /= f.cfg.Workload.RateAt(frac)
	}
	f.nextArrival += gap
}

// arrive admits (or sheds) the next packet of the workload and dispatches
// it to a node queue.
func (f *fleet) arrive() {
	f.now = f.nextArrival
	idx := f.arrIdx
	f.arrIdx++
	f.scheduleNextArrival()
	f.counts.arrivals++

	// Admission control: when offered load exceeds the eligible fleet's
	// estimated capacity, shed the excess fraction deterministically via
	// an accumulating debt (no randomness: byte-identical reruns).
	capacity := 0.0
	for _, m := range f.nodes {
		if m.state.eligible() && m.ewma > 0 {
			capacity += 1 / m.ewma
		}
	}
	if capacity <= 0 {
		f.counts.shed++
		f.counts.shedAdmission++
		return
	}
	if offered := 1 / f.meanGap; offered > capacity {
		f.shedDebt += 1 - capacity/offered
		if f.shedDebt >= 1 {
			f.shedDebt--
			f.counts.shed++
			f.counts.shedAdmission++
			return
		}
	}
	f.counts.admitted++

	ni := f.pick(&f.trace.Packets[idx])
	if ni < 0 {
		f.counts.shed++
		f.counts.shedQueueFull++
		return
	}
	f.counts.dispatched++
	f.nodes[ni].queue = append(f.nodes[ni].queue, job{idx: idx, arrival: f.now})
}

// pick selects the destination node for a packet per the dispatch policy,
// or -1 when no eligible node has queue room.
func (f *fleet) pick(p *packet.Packet) int {
	elig := make([]bool, len(f.nodes))
	for i, m := range f.nodes {
		elig[i] = m.state.eligible()
	}
	room := func(i int) bool { return len(f.nodes[i].queue) < f.cfg.QueueCap }
	if f.cfg.Dispatch == DispatchLeastLoaded {
		load := func(i int) int {
			l := len(f.nodes[i].queue)
			if f.nodes[i].busy {
				l++
			}
			return l
		}
		return leastLoadedPick(elig, load, room)
	}
	return rendezvousPick(flowKey(p), elig, room)
}

// startService pops the head of node i's queue and runs it through the
// real processor. The outcome (service cycles, drop, death) is computed
// here but its bookkeeping applies at the completion event, keeping fleet
// state changes in virtual-time order.
func (f *fleet) startService(i int) error {
	m := f.nodes[i]
	m.cur = m.queue[0]
	m.queue = m.queue[1:]
	out, err := m.node.Process(&f.trace.Packets[m.cur.idx])
	if err != nil {
		return fmt.Errorf("cluster: node %d: %w", i, err)
	}
	m.out = out
	m.busy = true
	m.busyUntil = f.now + out.Cycles
	return nil
}

// complete applies the bookkeeping of node i's finished packet: latency
// and SLO accounting, the capacity estimate, health-window assessment, and
// the drain/death lifecycle.
func (f *fleet) complete(i int) {
	m := f.nodes[i]
	m.busy = false
	out, j := m.out, m.cur

	if out.Dropped {
		f.counts.nodeDrops++
	} else {
		f.counts.completed++
		lat := f.now - j.arrival
		f.latencies = append(f.latencies, lat)
		if lat <= f.sloLatency {
			f.withinSLO++
		} else {
			f.counts.sloViolations++
		}
	}
	m.ewma += (out.Cycles - m.ewma) / 8

	if out.Fatal {
		f.die(i, "node fatal: "+out.Reason)
		return
	}

	m.windowServed++
	if m.windowServed >= f.cfg.Health.Window && m.state != StateDead && m.state != StateDraining {
		f.assess(i)
	}
	if m.state == StateDraining && len(m.queue) == 0 {
		f.finishDrain(i)
	}
}

// assess closes node i's health window: difference the ladder evidence
// since the last boundary, judge it, and move the state machine.
func (f *fleet) assess(i int) {
	m := f.nodes[i]
	h := m.node.Health()
	w := windowEvidence{
		attempted:    h.Attempted - m.lastHealth.Attempted,
		contained:    h.Contained - m.lastHealth.Contained,
		disabledFrac: h.DisabledFrac,
	}
	m.lastHealth = h
	m.windowServed = 0
	v := judge(w)
	reason := fmt.Sprintf("window drop=%.3f disabled=%.3f", w.dropRate(), w.disabledFrac)

	// Draining nodes are already on their way out and dead nodes never
	// serve a window, so the lifecycle switch only judges serving states.
	//lint:exhaustive-ok draining nodes are already leaving; dead nodes never complete a window
	switch m.state {
	case StateHealthy:
		switch v {
		case verdictDrain:
			f.startDrain(i, reason)
		case verdictDegrade:
			m.cleanWindows = 0
			f.transition(i, StateDegraded, reason)
		case verdictClean:
			// Healthy stays healthy; there is no streak to reset.
		}
	case StateDegraded:
		switch v {
		case verdictDrain:
			f.startDrain(i, reason)
		case verdictClean:
			m.cleanWindows++
			if m.cleanWindows >= healthyWindows {
				f.transition(i, StateHealthy, "recovered: "+reason)
			}
		case verdictDegrade:
			m.cleanWindows = 0
		}
	case StateProbation:
		if v == verdictDrain {
			f.startDrain(i, "probation failed: "+reason)
			return
		}
		m.probationServed += f.cfg.Health.Window
		if m.probationServed >= probationWindows*f.cfg.Health.Window {
			f.transition(i, StateHealthy, "probation passed")
		}
	}
}

// startDrain takes node i out of rotation: it finishes its queue but
// receives no new traffic (its flows rehash to survivors), then re-clocks.
func (f *fleet) startDrain(i int, reason string) {
	m := f.nodes[i]
	m.drains++
	m.cleanWindows = 0
	f.transition(i, StateDraining, reason)
	if !m.busy && len(m.queue) == 0 {
		f.finishDrain(i)
	}
}

// finishDrain runs the drain-complete step of node i: retire the node if
// its re-clock budget is exhausted, otherwise step its cycle time up
// (re-enabling disabled frames) and put it on probation.
func (f *fleet) finishDrain(i int) {
	m := f.nodes[i]
	hc := f.cfg.Health
	if m.drains > hc.MaxDrains {
		f.die(i, "drain budget exhausted")
		return
	}
	if !f.cfg.Dynamic && m.cr >= hc.MaxCycleTime {
		f.die(i, "re-clock cap reached")
		return
	}
	cr := m.cr + reclockStep
	if cr > hc.MaxCycleTime {
		cr = hc.MaxCycleTime
	}
	m.cr = m.node.Reclock(cr)
	f.counts.reclocks++
	f.rt.NodeReclock(i, m.cr)
	m.lastHealth = m.node.Health()
	m.windowServed = 0
	m.probationServed = 0
	f.transition(i, StateProbation, fmt.Sprintf("re-clocked to cr=%.3f", m.cr))
}

// die retires node i and fails its queued packets over to the survivors,
// preserving their arrival times; packets with nowhere to go are shed.
func (f *fleet) die(i int, reason string) {
	m := f.nodes[i]
	f.transition(i, StateDead, reason)
	orphans := m.queue
	m.queue = nil
	for k := range orphans {
		ni := f.pick(&f.trace.Packets[orphans[k].idx])
		if ni < 0 {
			f.counts.shed++
			f.counts.shedFailover++
			continue
		}
		f.counts.redispatched++
		f.nodes[ni].queue = append(f.nodes[ni].queue, orphans[k])
	}
}

// transition moves node i's state, counts it, and emits the trace event.
func (f *fleet) transition(i int, to NodeState, reason string) {
	m := f.nodes[i]
	from := m.state
	if from == to {
		return
	}
	m.state = to
	switch to {
	case StateDegraded:
		f.counts.degradations++
	case StateDraining:
		f.counts.drains++
	case StateProbation:
		f.counts.probations++
	case StateHealthy:
		f.counts.recoveries++
	case StateDead:
		f.counts.deaths++
	}
	f.rt.NodeTransition(i, from.String(), to.String(), reason)
}

// flushTelemetry pushes the run's aggregates into the counter registry.
func (f *fleet) flushTelemetry(tel *telemetry.Telemetry) {
	if tel == nil || tel.Registry == nil {
		return
	}
	reg := tel.Registry
	c := f.counts
	reg.Counter(telemetry.CtrClusterArrivals).Add(uint64(c.arrivals))
	reg.Counter(telemetry.CtrClusterAdmitted).Add(uint64(c.admitted))
	reg.Counter(telemetry.CtrClusterShed).Add(uint64(c.shed))
	reg.Counter(telemetry.CtrClusterDispatched).Add(uint64(c.dispatched))
	reg.Counter(telemetry.CtrClusterCompleted).Add(uint64(c.completed))
	reg.Counter(telemetry.CtrClusterNodeDrops).Add(uint64(c.nodeDrops))
	reg.Counter(telemetry.CtrClusterRedispatched).Add(uint64(c.redispatched))
	reg.Counter(telemetry.CtrClusterDegradations).Add(uint64(c.degradations))
	reg.Counter(telemetry.CtrClusterDrains).Add(uint64(c.drains))
	reg.Counter(telemetry.CtrClusterReclocks).Add(uint64(c.reclocks))
	reg.Counter(telemetry.CtrClusterProbations).Add(uint64(c.probations))
	reg.Counter(telemetry.CtrClusterRecoveries).Add(uint64(c.recoveries))
	reg.Counter(telemetry.CtrClusterDeaths).Add(uint64(c.deaths))
	reg.Counter(telemetry.CtrClusterSLOViolations).Add(uint64(c.sloViolations))
	hist := reg.Histogram(telemetry.HistClusterLatency)
	for _, l := range f.latencies {
		hist.Observe(uint64(l))
	}
}
