package telemetry

import "sort"

// Kind classifies a registered telemetry name.
//
//lint:exhaustive
type Kind int

const (
	// KindCounter names a monotonic counter in the registry.
	KindCounter Kind = iota
	// KindHistogram names a log2-bucketed histogram in the registry.
	KindHistogram
	// KindEvent names a structured trace event type (the "type" field of
	// the JSONL records).
	KindEvent
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	case KindEvent:
		return "event"
	default:
		return "unknown"
	}
}

// NameSpec documents one registered telemetry name. The table below is the
// single source of truth for the simulator's instrument and event names:
// the `telemnames` analyzer in internal/lint rejects any Counter/Histogram
// lookup or trace-event type that is not listed here, and the CLI `stats
// -describe` subcommand prints it.
type NameSpec struct {
	Name string
	Kind Kind
	Help string
}

// Registered counter names. Instrumented code must reference counters
// through these constants (or the cache-level helper below); a raw string
// literal that drifts from the table is a lint error.
const (
	CtrRunCount                  = "run.count"
	CtrRunFatal                  = "run.fatal"
	CtrRunPacketsProcessed       = "run.packets_processed"
	CtrRunPacketsDropped         = "run.packets_dropped"
	CtrRunInstructions           = "run.instructions"
	CtrRunCycles                 = "run.cycles"
	CtrFaultReadInjected         = "fault.read_injected"
	CtrFaultWriteInjected        = "fault.write_injected"
	CtrFaultBurstEpisodes        = "fault.burst_episodes"
	CtrFaultPermanentHits        = "fault.permanent_hits"
	CtrCacheL1DLinesDisabled     = "cache.l1d.lines_disabled"
	CtrRecoveryLineDisabled      = "recovery.line_disabled"
	CtrRecoveryEscalations       = "recovery.escalations"
	CtrRecoveryDetected          = "recovery.detected"
	CtrRecoveryRetries           = "recovery.retries"
	CtrRecoveryRecoveries        = "recovery.recoveries"
	CtrRecoveryECCCorrected      = "recovery.ecc_corrected"
	CtrRecoveryECCMiscorrected   = "recovery.ecc_miscorrected"
	CtrRecoveryContained         = "recovery.contained"
	CtrRecoveryRestoredPages     = "recovery.restored_pages"
	CtrFreqEpochs                = "freq.epochs"
	CtrFreqUpTransitions         = "freq.up_transitions"
	CtrFreqDownTransitions       = "freq.down_transitions"
	CtrFreqSwitches              = "freq.switches"
	CtrFreqPenaltyCycles         = "freq.penalty_cycles"
	CtrWatchdogKills             = "watchdog.kills"
	CtrCyclesCompute             = "cycles.compute"
	CtrCyclesL1DStall            = "cycles.l1d_stall"
	CtrCyclesL1IStall            = "cycles.l1i_stall"
	CtrCyclesL2Stall             = "cycles.l2_stall"
	CtrCyclesMemStall            = "cycles.mem_stall"
	CtrCyclesRecovery            = "cycles.recovery"
	CtrCyclesFreqPenalty         = "cycles.freq_penalty"
	CtrExperimentRuns            = "experiment.runs"
	CtrCampaignCellsDone         = "campaign.cells_done"
	CtrCampaignCellsSkipped      = "campaign.cells_skipped"
	CtrCampaignCellsTimedOut     = "campaign.cells_timed_out"
	CtrClusterArrivals           = "cluster.arrivals"
	CtrClusterAdmitted           = "cluster.admitted"
	CtrClusterShed               = "cluster.shed"
	CtrClusterDispatched         = "cluster.dispatched"
	CtrClusterCompleted          = "cluster.completed"
	CtrClusterNodeDrops          = "cluster.node_drops"
	CtrClusterRedispatched       = "cluster.failover_redispatched"
	CtrClusterDegradations       = "cluster.degradations"
	CtrClusterDrains             = "cluster.drains"
	CtrClusterReclocks           = "cluster.reclocks"
	CtrClusterProbations         = "cluster.probations"
	CtrClusterRecoveries         = "cluster.recoveries"
	CtrClusterDeaths             = "cluster.deaths"
	CtrClusterSLOViolations      = "cluster.slo_violations"
	CtrServiceCampaignsActive    = "service.campaigns_active"
	CtrServiceCampaignsQueued    = "service.campaigns_queued"
	CtrServiceCampaignsCompleted = "service.campaigns_completed"
	CtrServiceCampaignsFailed    = "service.campaigns_failed"
	CtrServiceCampaignsRestarted = "service.campaigns_restarted"
	CtrServiceQueueRejections    = "service.queue_rejections"
	CtrServiceRecoveriesOnStart  = "service.recoveries_on_start"
	CtrStateDetected             = "state.detected"
	CtrStateEvictions            = "state.evictions"
	CtrStateRebuilds             = "state.rebuilds"
	CtrStateScrubs               = "state.scrubs"
)

// Registered histogram names.
const (
	HistPacketInstructions = "packet.instructions"
	HistPacketCycles       = "packet.cycles"
	HistExperimentRunMS    = "experiment.run_ms"
	HistClusterLatency     = "cluster.latency_ticks"
)

// Registered trace-event types.
const (
	EventRunStart       = "run_start"
	EventRunEnd         = "run_end"
	EventFaultInjection = "fault_injection"
	EventRecovery       = "recovery"
	EventFreqTransition = "freq_transition"
	EventPacketDrop     = "packet_drop"
	EventStateRestore   = "state_restore"
	EventCampaignResume = "campaign_resume"
	EventCellTimeout    = "cell_timeout"
	EventLineDisable    = "line_disable"
	EventBurstEnter     = "burst_enter"
	EventBurstExit      = "burst_exit"
	EventNodeTransition = "node_transition"
	EventNodeReclock    = "node_reclock"
	EventStateCorrupt   = "state_corrupt"
	EventStateScrub     = "state_scrub"
)

// CacheLevels are the per-level counter families of the memory hierarchy.
var CacheLevels = []string{"l1d", "l1i", "l2", "mem"}

// cacheEvents are the per-level cache counter suffixes.
var cacheEvents = []struct{ suffix, help string }{
	{"reads", "read accesses"},
	{"writes", "write accesses"},
	{"read_misses", "read misses"},
	{"write_misses", "write misses"},
	{"writebacks", "dirty lines written to the next level"},
	{"invalidations", "lines dropped by recovery or DMA coherence"},
}

// CacheCounterName returns the registered counter name for one cache
// level's event, e.g. ("l1d", "reads") -> "cache.l1d.reads".
func CacheCounterName(level, event string) string {
	return "cache." + level + "." + event
}

// names is the full registry table, built once at init.
var names []NameSpec

// byName indexes the table for Registered.
var byName map[string]Kind

func init() {
	names = []NameSpec{
		{CtrRunCount, KindCounter, "simulated faulty runs started"},
		{CtrRunFatal, KindCounter, "runs ended by a fatal error"},
		{CtrRunPacketsProcessed, KindCounter, "packets completed across runs"},
		{CtrRunPacketsDropped, KindCounter, "packets dropped (aborted or contained)"},
		{CtrRunInstructions, KindCounter, "instructions executed across runs"},
		{CtrRunCycles, KindCounter, "cycles burned across runs"},
		{CtrFaultReadInjected, KindCounter, "fault events injected on the L1D read path"},
		{CtrFaultWriteInjected, KindCounter, "fault events injected on the L1D write path"},
		{CtrFaultBurstEpisodes, KindCounter, "bad-state episodes entered by the Gilbert-Elliott burst process"},
		{CtrFaultPermanentHits, KindCounter, "accesses faulted by a stuck-at cell below its critical cycle time"},
		{CtrCacheL1DLinesDisabled, KindCounter, "L1D frames disabled by the strike-budget recovery action"},
		{CtrRecoveryLineDisabled, KindCounter, "line-disable recovery actions taken"},
		{CtrRecoveryEscalations, KindCounter, "recovery-ladder escalations beyond k-strike retry (line disables + spatial frequency back-offs)"},
		{CtrRecoveryDetected, KindCounter, "detected (uncorrectable) parity/ECC mismatches"},
		{CtrRecoveryRetries, KindCounter, "L1 re-reads before recovery (two-/three-strike)"},
		{CtrRecoveryRecoveries, KindCounter, "refetch-from-L2 recovery sequences"},
		{CtrRecoveryECCCorrected, KindCounter, "single-bit faults repaired in place by ECC"},
		{CtrRecoveryECCMiscorrected, KindCounter, ">=3-bit faults silently miscorrected by ECC"},
		{CtrRecoveryContained, KindCounter, "fatal errors contained as packet drops"},
		{CtrRecoveryRestoredPages, KindCounter, "checkpoint pages rolled back by containment"},
		{CtrFreqEpochs, KindCounter, "dynamic-frequency controller epochs"},
		{CtrFreqUpTransitions, KindCounter, "epochs that sped the L1D up"},
		{CtrFreqDownTransitions, KindCounter, "epochs that slowed the L1D down"},
		{CtrFreqSwitches, KindCounter, "operating-point switches applied"},
		{CtrFreqPenaltyCycles, KindCounter, "cycles charged for frequency switches"},
		{CtrWatchdogKills, KindCounter, "packets killed by the instruction-budget watchdog"},
		{CtrCyclesCompute, KindCounter, "cycles attributed to single-issue instruction execution"},
		{CtrCyclesL1DStall, KindCounter, "cycles attributed to first-attempt L1D array access"},
		{CtrCyclesL1IStall, KindCounter, "cycles attributed to L1I fetch stalls (incl. its backend fills)"},
		{CtrCyclesL2Stall, KindCounter, "cycles attributed to normal-path L2 fills and write-backs on the data side"},
		{CtrCyclesMemStall, KindCounter, "cycles attributed to normal-path main-memory transfers on the data side"},
		{CtrCyclesRecovery, KindCounter, "cycles attributed to fault recovery (retries, refetches, watchdog burn)"},
		{CtrCyclesFreqPenalty, KindCounter, "cycles attributed to operating-point switch penalties"},
		{CtrExperimentRuns, KindCounter, "experiment-grid runs completed"},
		{CtrCampaignCellsDone, KindCounter, "campaign grid cells computed to completion"},
		{CtrCampaignCellsSkipped, KindCounter, "campaign grid cells satisfied from the resume journal"},
		{CtrCampaignCellsTimedOut, KindCounter, "campaign grid cells failed by the per-cell wall-clock deadline"},
		{CtrClusterArrivals, KindCounter, "packets arrived at the fleet dispatcher"},
		{CtrClusterAdmitted, KindCounter, "packets admitted past fleet admission control"},
		{CtrClusterShed, KindCounter, "packets shed by admission control or full queues"},
		{CtrClusterDispatched, KindCounter, "packets enqueued to a node by the dispatcher"},
		{CtrClusterCompleted, KindCounter, "packets completed by fleet nodes"},
		{CtrClusterNodeDrops, KindCounter, "packets dropped by node-level fault containment"},
		{CtrClusterRedispatched, KindCounter, "queued packets re-dispatched to survivors off a failed node"},
		{CtrClusterDegradations, KindCounter, "node transitions into the degraded health state"},
		{CtrClusterDrains, KindCounter, "node transitions into the draining health state"},
		{CtrClusterReclocks, KindCounter, "drain-complete re-clock actions applied to nodes"},
		{CtrClusterProbations, KindCounter, "nodes re-admitted to dispatch on probation"},
		{CtrClusterRecoveries, KindCounter, "nodes recovered from probation to healthy"},
		{CtrClusterDeaths, KindCounter, "nodes declared dead and ejected from the fleet"},
		{CtrClusterSLOViolations, KindCounter, "completed packets whose latency exceeded the SLO"},
		{CtrServiceCampaignsActive, KindCounter, "campaigns entered the running state by a clumsyd supervisor"},
		{CtrServiceCampaignsQueued, KindCounter, "campaigns accepted into the clumsyd submission queue"},
		{CtrServiceCampaignsCompleted, KindCounter, "campaigns completed by clumsyd supervisors"},
		{CtrServiceCampaignsFailed, KindCounter, "campaigns failed terminally after exhausting supervised restarts"},
		{CtrServiceCampaignsRestarted, KindCounter, "supervised restart-with-resume attempts after a campaign failure"},
		{CtrServiceQueueRejections, KindCounter, "campaign submissions rejected by queue backpressure (HTTP 429)"},
		{CtrServiceRecoveriesOnStart, KindCounter, "incomplete campaigns re-adopted from their journals at clumsyd startup"},
		{CtrStateDetected, KindCounter, "flow-record checksum mismatches detected by verified reads or scrub"},
		{CtrStateEvictions, KindCounter, "corrupted flow records evicted (first recovery-ladder rung)"},
		{CtrStateRebuilds, KindCounter, "corrupted flow records rebuilt from the golden shadow"},
		{CtrStateScrubs, KindCounter, "periodic flow-table scrub passes completed"},

		{HistPacketInstructions, KindHistogram, "instructions per completed packet"},
		{HistPacketCycles, KindHistogram, "cycles per completed packet"},
		{HistExperimentRunMS, KindHistogram, "wall-clock milliseconds per grid run"},
		{HistClusterLatency, KindHistogram, "queueing+service latency in virtual ticks per completed fleet packet"},

		{EventRunStart, KindEvent, "configuration of a starting run"},
		{EventRunEnd, KindEvent, "outcome of a finished run"},
		{EventFaultInjection, KindEvent, "one injected fault on the L1D read or write path"},
		{EventRecovery, KindEvent, "one step of the k-strike recovery machinery"},
		{EventFreqTransition, KindEvent, "one applied dynamic-frequency decision"},
		{EventPacketDrop, KindEvent, "one packet killed by a fatal error"},
		{EventStateRestore, KindEvent, "one fault-containment rollback to a packet boundary"},
		{EventCampaignResume, KindEvent, "campaign resumed from a journal, skipping completed cells"},
		{EventCellTimeout, KindEvent, "one campaign grid cell failed by its wall-clock deadline"},
		{EventLineDisable, KindEvent, "one L1D frame disabled after exhausting its strike budget"},
		{EventBurstEnter, KindEvent, "burst process entered the bad (droop episode) state"},
		{EventBurstExit, KindEvent, "burst process returned to the good state"},
		{EventNodeTransition, KindEvent, "one fleet-node health state transition"},
		{EventNodeReclock, KindEvent, "one drain-complete re-clock of a fleet node"},
		{EventStateCorrupt, KindEvent, "one recovery-ladder action on a corrupted flow record"},
		{EventStateScrub, KindEvent, "one periodic flow-table scrub pass"},
	}
	for _, level := range CacheLevels {
		for _, ev := range cacheEvents {
			names = append(names, NameSpec{
				Name: CacheCounterName(level, ev.suffix),
				Kind: KindCounter,
				Help: "L1D/L1I/L2/memory " + ev.help + " (" + level + ")",
			})
		}
	}
	byName = make(map[string]Kind, len(names))
	for _, n := range names {
		if _, dup := byName[n.Name]; dup {
			panic("telemetry: duplicate registered name " + n.Name)
		}
		byName[n.Name] = n.Kind
	}
}

// Names returns the registry table sorted by kind then name.
func Names() []NameSpec {
	out := make([]NameSpec, len(names))
	copy(out, names)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Registered reports whether name is a registered instrument or event of
// the given kind.
func Registered(name string, k Kind) bool {
	kind, ok := byName[name]
	return ok && kind == k
}
