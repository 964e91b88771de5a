package telemetry

import (
	"sync"
	"time"
)

// Progress is a snapshot of a running experiment grid, delivered to the
// RunMonitor's OnProgress callback after every completed or skipped run.
type Progress struct {
	Done    int           // runs completed
	Skipped int           // runs drained without executing after a grid failure or cancellation
	Total   int           // runs in the grid
	Workers int           // parallel workers executing the grid
	Elapsed time.Duration // wall time since the grid started
	Busy    time.Duration // summed per-run wall time across workers
	AvgRun  time.Duration // mean wall time per completed run
}

// Utilization returns the fraction of worker wall-time spent inside runs
// (1.0 = every worker busy the whole time).
func (p Progress) Utilization() float64 {
	if p.Workers <= 0 || p.Elapsed <= 0 {
		return 0
	}
	u := float64(p.Busy) / (float64(p.Elapsed) * float64(p.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// RunMonitor collects wall-clock telemetry for a parallel experiment grid:
// per-run durations, total worker busy time, and completion progress. A
// nil *RunMonitor is valid and records nothing, so the runner can hold one
// unconditionally.
//
// When Registry is set, every completed run also feeds the
// "experiment.runs" counter and the "experiment.run_ms" histogram, so grid
// timing shows up in the same stats dump as the simulation counters.
type RunMonitor struct {
	// OnProgress, if non-nil, observes every completed run and every
	// skipped one. It is called under the monitor's lock: keep it fast and
	// do not re-enter the monitor.
	OnProgress func(Progress)

	// Registry, if non-nil, receives run-duration instruments.
	Registry *Registry

	mu      sync.Mutex
	total   int
	done    int
	skipped int
	workers int
	started time.Time
	busy    time.Duration
}

// Begin marks the start of a grid of total runs on the given number of
// workers, resetting the per-grid progress state.
func (m *RunMonitor) Begin(total, workers int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.total = total
	m.done = 0
	m.skipped = 0
	m.workers = workers
	m.started = time.Now() //lint:wallclock-ok — wall-clock progress reporting, never feeds simulated state
	m.busy = 0
	m.mu.Unlock()
}

// RunDone records the completion of one run that took d of wall time.
func (m *RunMonitor) RunDone(d time.Duration) {
	if m == nil {
		return
	}
	if m.Registry != nil {
		m.Registry.Counter(CtrExperimentRuns).Inc()
		m.Registry.Histogram(HistExperimentRunMS).Observe(uint64(d.Milliseconds()))
	}
	m.mu.Lock()
	m.done++
	m.busy += d
	m.reportLocked()
	m.mu.Unlock()
}

// RunSkipped records one grid item that was drained without executing —
// after the grid's first failure or a campaign cancellation the remaining
// queued items are skipped, and a campaign log should say how many.
func (m *RunMonitor) RunSkipped() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.skipped++
	m.reportLocked()
	m.mu.Unlock()
}

// reportLocked hands the grid's progress to OnProgress, if one is set.
func (m *RunMonitor) reportLocked() {
	if m.OnProgress != nil {
		m.OnProgress(m.progressLocked())
	}
}

func (m *RunMonitor) progressLocked() Progress {
	p := Progress{
		Done:    m.done,
		Skipped: m.skipped,
		Total:   m.total,
		Workers: m.workers,
		Busy:    m.busy,
	}
	if !m.started.IsZero() {
		p.Elapsed = time.Since(m.started) //lint:wallclock-ok — elapsed wall time of the grid, reporting only
	}
	if m.done > 0 {
		p.AvgRun = m.busy / time.Duration(m.done)
	}
	return p
}
