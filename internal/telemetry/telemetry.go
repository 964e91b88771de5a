// Package telemetry is the observability layer of the simulator: atomic
// counters and histograms collected into a registry, a structured JSONL
// event sink with simulated-cycle timestamps, and wall-clock monitoring for
// the parallel experiment runner.
//
// The package is designed so that instrumentation costs nothing when it is
// off. Instrumented code holds a possibly-nil *RunTrace; every emit method
// is nil-receiver-safe, so the disabled hot path pays one predictable
// branch and zero allocations. Counters are not incremented on the
// simulator's hot paths at all — the run machinery keeps its existing plain
// struct statistics and flushes them into the atomic registry once per run,
// which also makes the registry safe to share across the parallel
// experiment workers.
package telemetry

import "sync/atomic"

// Telemetry is the process-wide observability hub: a counter registry plus
// an optional trace sink. A nil *Telemetry is valid and means "off".
type Telemetry struct {
	Registry *Registry

	sink   atomic.Pointer[JSONLSink]
	runSeq atomic.Uint64
}

// New returns a Telemetry hub with an empty registry and no trace sink.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry()}
}

// SetSink installs (or, with nil, removes) the structured event sink.
func (t *Telemetry) SetSink(s *JSONLSink) {
	if t == nil {
		return
	}
	t.sink.Store(s)
}

// Sink returns the installed event sink, or nil.
func (t *Telemetry) Sink() *JSONLSink {
	if t == nil {
		return nil
	}
	return t.sink.Load()
}

// StartRun opens a trace for one simulation run. clock supplies the
// current simulated cycle for event timestamps (nil stamps zero). It
// returns nil — the disabled trace — when t is nil or no sink is
// installed, so callers can hold the result unconditionally.
func (t *Telemetry) StartRun(clock func() float64) *RunTrace {
	sink := t.Sink()
	if sink == nil {
		return nil
	}
	return &RunTrace{
		sink:  sink,
		run:   t.runSeq.Add(1),
		clock: clock,
	}
}
