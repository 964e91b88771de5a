package experiment

import (
	"errors"
	"fmt"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/telemetry"
)

// The campaign layer gives the host-level experiment runner the same
// discipline packet containment gives the simulated processor: one grid
// cell failing, wedging, or being interrupted must not throw away the
// rest of a thousand-cell sweep. Every study routes its per-cell
// computation through runCell, which layers — in order —
//
//  1. resume: a cell already recorded in the campaign journal is decoded
//     and returned without simulating;
//  2. containment: a panic in the cell becomes an error naming the study
//     and cell instead of crashing the campaign;
//  3. deadline: with Options.RunTimeout set, a watchdog goroutine bounds
//     the cell's wall-clock time and fails it with a diagnostic naming
//     the study and cell instead of hanging the grid;
//  4. durability: the completed cell is recorded in the journal with an
//     atomic write before the grid moves on.
//
// Because every simulation is a pure function of its configuration, a
// cell that fails would fail again on a rerun, so a cell is never
// retried; a resumed campaign renders byte-identical output. The one
// retry is clumsyd's restart-with-resume, around the journal and result
// writes that can fail.

// CellTimeoutError reports one grid cell killed by the per-cell
// wall-clock deadline.
type CellTimeoutError struct {
	Study   string
	Index   int
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("experiment: %s cell %d exceeded the %v wall-clock deadline", e.Study, e.Index, e.Timeout)
}

// errCellPanic marks a Go panic raised inside a grid cell: a harness or
// simulator bug.
var errCellPanic = errors.New("experiment: panic in grid cell")

// runCell executes one grid cell of a study under the campaign
// discipline described above. study names the study (unique per
// application where the study is per-app), index is the cell's position
// in the study's grid, and extra carries the study-specific parameters
// (scheme, setting, thresholds, ...) that — together with the Options
// fingerprint — identify the cell's configuration. The computed (or
// journal-recovered) value lands in *slot.
func runCell[T any](o Options, study string, index int, extra any, slot *T, compute func() (T, error)) error {
	key := o.fingerprint(study, index, extra)
	if o.Journal != nil && o.Journal.lookup(key, slot) {
		if tel := clumsy.DefaultTelemetry(); tel != nil {
			tel.Registry.Counter(telemetry.CtrCampaignCellsSkipped).Inc()
		}
		return nil
	}
	v, err := guardCell(o, study, index, compute)
	if err != nil {
		return fmt.Errorf("%s cell %d: %w", study, index, err)
	}
	*slot = v
	if o.Journal != nil {
		if jerr := o.Journal.record(key, study, index, v); jerr != nil {
			return fmt.Errorf("%s cell %d: %w", study, index, jerr)
		}
	}
	if tel := clumsy.DefaultTelemetry(); tel != nil {
		tel.Registry.Counter(telemetry.CtrCampaignCellsDone).Inc()
	}
	if o.afterCell != nil {
		o.afterCell(study, index)
	}
	return nil
}

// grid runs the n cells of one study grid in parallel and returns them in
// index order. Cell i is a campaign cell of study with index i and the
// study-specific parameters key(i), which together with the options give
// its journal key; cell(i) computes it.
func grid[T any](o Options, study string, n int, key func(i int) any, cell func(i int) (T, error)) ([]T, error) {
	cells := make([]T, n)
	err := parallelFor(o.ctx(), n, func(i int) error {
		return runCell(o, study, i, key(i), &cells[i], func() (T, error) { return cell(i) })
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// guardCell runs compute under the per-cell wall-clock deadline, with a
// panic turned into an errCellPanic error. With no deadline configured it
// calls compute inline; with one, compute runs in a watchdog-supervised
// goroutine. On timeout the cell fails immediately and the wedged
// goroutine is abandoned — it holds only run-local state, and its
// eventual result (if any) lands in a buffered channel nobody reads.
// Cancellation is not raced here: compute observes the campaign context
// through Options.run and returns promptly on its own.
func guardCell[T any](o Options, study string, index int, compute func() (T, error)) (T, error) {
	if o.RunTimeout <= 0 {
		return contain(study, index, compute)
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := contain(study, index, compute)
		done <- outcome{v, err}
	}()
	timer := time.NewTimer(o.RunTimeout)
	defer timer.Stop()
	select {
	case out := <-done:
		return out.v, out.err
	case <-timer.C:
		if tel := clumsy.DefaultTelemetry(); tel != nil {
			tel.Registry.Counter(telemetry.CtrCampaignCellsTimedOut).Inc()
			tel.StartRun(nil).CellTimeout(study, index, o.RunTimeout.Seconds())
		}
		var zero T
		return zero, &CellTimeoutError{Study: study, Index: index, Timeout: o.RunTimeout}
	}
}

// contain calls compute and turns a panic in it into an errCellPanic
// error carrying the cell and the panic value.
func contain[T any](study string, index int, compute func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w %s[%d]: %v", errCellPanic, study, index, r)
		}
	}()
	return compute()
}
