package clumsy

import (
	"errors"
	"sync/atomic"

	"clumsy/internal/cache"
	"clumsy/internal/freqctl"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// defaultTelemetry is the process-wide hub picked up by every Config that
// does not carry its own. The CLI installs one here so that experiment
// grids — which build Configs deep inside internal/experiment — are traced
// and counted without any plumbing changes.
var defaultTelemetry atomic.Pointer[telemetry.Telemetry]

// SetDefaultTelemetry installs the hub used by Configs with a nil
// Telemetry field. Pass nil to disable.
func SetDefaultTelemetry(t *telemetry.Telemetry) { defaultTelemetry.Store(t) }

// DefaultTelemetry returns the process-wide hub, or nil.
func DefaultTelemetry() *telemetry.Telemetry { return defaultTelemetry.Load() }

// wireFreqTelemetry hooks the controller's epoch decisions into the
// counter registry.
func wireFreqTelemetry(ctrl *freqctl.Controller, reg *telemetry.Registry) {
	epochs := reg.Counter(telemetry.CtrFreqEpochs)
	up := reg.Counter(telemetry.CtrFreqUpTransitions)
	down := reg.Counter(telemetry.CtrFreqDownTransitions)
	ctrl.OnDecision = func(d freqctl.Decision) {
		epochs.Inc()
		switch d {
		case freqctl.SpeedUp:
			up.Inc()
		case freqctl.SlowDown:
			down.Inc()
		case freqctl.Keep:
		}
	}
}

// flushTelemetry flushes the faulty pass's accumulated statistics, folded
// into res, into the registry and closes the run trace. The simulator's
// hot paths keep their plain struct counters; this once-per-run flush is
// what makes the telemetry layer free while a run executes.
func (n *Node) flushTelemetry(res *Result) {
	if n.tel == nil {
		return
	}
	h := n.h
	reg := n.tel.Registry
	reg.Counter(telemetry.CtrRunCount).Inc()
	if res.FatalErr != nil {
		reg.Counter(telemetry.CtrRunFatal).Inc()
	}
	// Drops are counted from the actual per-packet drop events, not
	// inferred as trace-length minus processed: under drop-and-continue a
	// run completes the trace yet still dropped packets, and under abort
	// the packets after the fatal one were never attempted, only lost.
	if n.drops > 0 {
		reg.Counter(telemetry.CtrRunPacketsDropped).Add(uint64(n.drops))
	}
	if n.watchdogKills > 0 {
		reg.Counter(telemetry.CtrWatchdogKills).Add(uint64(n.watchdogKills))
	}
	if res.Contained > 0 {
		reg.Counter(telemetry.CtrRecoveryContained).Add(uint64(res.Contained))
		reg.Counter(telemetry.CtrRecoveryRestoredPages).Add(res.RestoredPages)
	}
	reg.Counter(telemetry.CtrRunPacketsProcessed).Add(uint64(n.processed))
	reg.Counter(telemetry.CtrRunInstructions).Add(n.eng.instrs)
	reg.Counter(telemetry.CtrRunCycles).Add(uint64(res.Cycles))

	// Per-component cycle attribution: the same total, split by where the
	// cycles went. Counters are integral, so each bucket is truncated
	// independently; consumers wanting the exact partition read the
	// Breakdown fields off the Result.
	bd := res.Breakdown
	reg.Counter(telemetry.CtrCyclesCompute).Add(uint64(bd.Compute))
	reg.Counter(telemetry.CtrCyclesL1DStall).Add(uint64(bd.L1D))
	reg.Counter(telemetry.CtrCyclesL1IStall).Add(uint64(bd.L1I))
	reg.Counter(telemetry.CtrCyclesL2Stall).Add(uint64(bd.L2))
	reg.Counter(telemetry.CtrCyclesMemStall).Add(uint64(bd.Mem))
	reg.Counter(telemetry.CtrCyclesRecovery).Add(uint64(bd.Recovery))
	reg.Counter(telemetry.CtrCyclesFreqPenalty).Add(uint64(bd.FreqPenalty))

	addCacheStats(reg, "l1d", h.L1D.Stats)
	addCacheStats(reg, "l1i", h.L1I.Stats)
	addCacheStats(reg, "l2", h.L2.Stats)
	addCacheStats(reg, "mem", h.Mem.Stats)

	rec := h.L1D.Recovery
	reg.Counter(telemetry.CtrFaultReadInjected).Add(rec.FaultsOnRead)
	reg.Counter(telemetry.CtrFaultWriteInjected).Add(rec.FaultsOnWrite)
	reg.Counter(telemetry.CtrRecoveryDetected).Add(rec.ParityErrors)
	reg.Counter(telemetry.CtrRecoveryRetries).Add(rec.Retries)
	reg.Counter(telemetry.CtrRecoveryRecoveries).Add(rec.Recoveries)
	reg.Counter(telemetry.CtrRecoveryECCCorrected).Add(rec.Corrected)
	reg.Counter(telemetry.CtrRecoveryECCMiscorrected).Add(rec.Miscorrected)

	// Recovery-ladder and correlated-regime counters; all zero (and the
	// flushes skipped) while the ladder and the new regimes are dormant.
	if rec.LineDisables > 0 {
		reg.Counter(telemetry.CtrRecoveryLineDisabled).Add(rec.LineDisables)
	}
	if res.LinesDisabled > 0 {
		reg.Counter(telemetry.CtrCacheL1DLinesDisabled).Add(uint64(res.LinesDisabled))
	}
	if res.BurstEpisodes > 0 {
		reg.Counter(telemetry.CtrFaultBurstEpisodes).Add(res.BurstEpisodes)
	}
	if res.PermanentHits > 0 {
		reg.Counter(telemetry.CtrFaultPermanentHits).Add(res.PermanentHits)
	}
	if esc := rec.LineDisables + uint64(res.SpatialBackoffs); esc > 0 {
		reg.Counter(telemetry.CtrRecoveryEscalations).Add(esc)
	}

	if n.ctrl != nil {
		reg.Counter(telemetry.CtrFreqSwitches).Add(uint64(n.ctrl.Switches))
		reg.Counter(telemetry.CtrFreqPenaltyCycles).Add(uint64(n.ctrl.PenaltyCycles))
	}

	// Flow-state integrity counters; all zero for stateless apps.
	if res.StateDetected > 0 {
		reg.Counter(telemetry.CtrStateDetected).Add(res.StateDetected)
	}
	if res.StateEvictions > 0 {
		reg.Counter(telemetry.CtrStateEvictions).Add(res.StateEvictions)
	}
	if res.StateRebuilds > 0 {
		reg.Counter(telemetry.CtrStateRebuilds).Add(res.StateRebuilds)
	}
	if res.StateScrubs > 0 {
		reg.Counter(telemetry.CtrStateScrubs).Add(res.StateScrubs)
	}
	n.rt.RunEnd(n.processed, n.drops, n.eng.instrs, res.FatalErr != nil)
}

// addCacheStats folds one cache level's statistics into the registered
// per-level counter family. Hits per level are derivable as
// reads-read_misses / writes-write_misses. The names are built through
// telemetry.CacheCounterName — the one deliberate dynamic family, carrying
// the telemname-dynamic escape below; the expanded names are all listed in
// the registry table.
func addCacheStats(reg *telemetry.Registry, level string, s cache.Stats) {
	for _, ev := range []struct {
		suffix string
		v      uint64
	}{
		{"reads", s.Reads},
		{"writes", s.Writes},
		{"read_misses", s.ReadMisses},
		{"write_misses", s.WriteMisses},
		{"writebacks", s.Writebacks},
		{"invalidations", s.Invalidations},
	} {
		reg.Counter(telemetry.CacheCounterName(level, ev.suffix)).Add(ev.v) //lint:telemname-dynamic
	}
}

// dropReason classifies the fatal error that killed a run for the
// packet_drop trace record.
func dropReason(err error) string {
	var ae *simmem.AccessError
	switch {
	case errors.Is(err, ErrStateCorrupt):
		return "state_corrupt"
	case errors.Is(err, ErrWatchdog):
		return "watchdog"
	case errors.Is(err, radix.ErrLoop):
		return "loop"
	case errors.Is(err, ErrAppPanic):
		return "panic"
	case errors.As(err, &ae):
		return "memory_trap"
	default:
		return "fatal"
	}
}
