package experiment

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"clumsy/internal/telemetry"
)

// gridMonitor, when set, receives wall-clock telemetry (per-run durations,
// worker utilization, progress) for every parallel grid. The CLI installs
// one; nil records nothing.
var gridMonitor atomic.Pointer[telemetry.RunMonitor]

// SetMonitor installs (or, with nil, removes) the wall-clock monitor
// observed by every subsequent experiment grid.
func SetMonitor(m *telemetry.RunMonitor) { gridMonitor.Store(m) }

// Monitor returns the installed grid monitor, or nil.
func Monitor() *telemetry.RunMonitor { return gridMonitor.Load() }

// maxJoinedErrors bounds how many distinct cell failures a grid reports.
// A campaign log should show every failing cell, but a systemic failure
// (disk full, bad build) would otherwise repeat one message hundreds of
// times.
const maxJoinedErrors = 8

// parallelFor runs fn(0..n-1) across GOMAXPROCS workers, issuing the
// indices in order, so one worker runs them in index order. Every
// simulation run is self-contained (its own simulated memory, RNG
// streams, and recorder), so experiment grids parallelise trivially;
// results must be written to index-distinct slots by fn. Every fn is a
// runCell, which turns a panic in its cell into an error, so a worker
// never unwinds.
//
// The first error — or ctx becoming done — cancels the grid promptly: no
// new indices are issued, and items already queued to a worker are
// drained without running. Every item that never runs, drained or never
// issued, is counted as skipped in the grid monitor, so done plus skipped
// reaches the grid's total. At most one in-flight item per worker
// executes after the failure. The returned error joins every distinct
// cell failure observed before the grid stopped, capped at
// maxJoinedErrors, so one campaign log names every failing cell instead
// of only the first.
func parallelFor(ctx context.Context, n int, fn func(i int) error) error {
	mon := Monitor()
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	runItem := fn
	if mon != nil {
		runItem = func(i int) error {
			start := time.Now() //lint:wallclock-ok — wall-clock run timing for the progress monitor
			err := fn(i)
			mon.RunDone(time.Since(start)) //lint:wallclock-ok — reporting only, never feeds simulated state
			return err
		}
	}
	mon.Begin(n, workers)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		seen map[string]bool
	)
	next := make(chan int)
	done := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		if errs == nil {
			seen = map[string]bool{}
			close(done)
		}
		// Deduplicate by message: a systemic failure hits many cells with
		// the same text, and repeating it drowns the distinct ones.
		if msg := err.Error(); len(errs) < maxJoinedErrors && !seen[msg] {
			seen[msg] = true
			errs = append(errs, err)
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-done:
					mon.RunSkipped() // drained without running: the grid failed
					continue
				case <-ctx.Done():
					mon.RunSkipped() // drained without running: campaign cancelled
					continue
				default:
				}
				if err := runItem(i); err != nil {
					fail(err)
				}
			}
		}()
	}
	issued := 0
feed:
	for ; issued < n; issued++ {
		select {
		case next <- issued:
		case <-done:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	for ; issued < n; issued++ {
		mon.RunSkipped() // never issued: the grid failed or was cancelled
	}
	wg.Wait()
	if len(errs) == 0 && ctx.Err() != nil {
		return ctx.Err()
	}
	return errors.Join(errs...)
}
