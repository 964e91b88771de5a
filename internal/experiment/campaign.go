package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
	"clumsy/internal/telemetry"
)

// The campaign layer gives the host-level experiment runner the same
// discipline PR 2 gave the simulated processor: one grid cell failing,
// wedging, or being interrupted must not throw away the rest of a
// thousand-cell sweep. Every study routes its per-cell computation
// through runCell, which layers — in order —
//
//  1. resume: a cell already recorded in the campaign journal is decoded
//     and returned without simulating;
//  2. deadline: with Options.RunTimeout set, a watchdog goroutine bounds
//     the cell's wall-clock time and fails it with a diagnostic naming
//     the study and cell instead of hanging the grid;
//  3. retry: transient host failures are retried with deterministic
//     exponential backoff up to Options.Retries times, while sim-semantic
//     errors (drop-rate exceeded, watchdog kills, traps, app panics) and
//     cancellation are terminal on the first occurrence;
//  4. durability: the completed cell is recorded in the journal with an
//     atomic write before the grid moves on.
//
// Because every simulation is a pure function of its configuration,
// none of these mechanisms can change results: a retried cell recomputes
// the identical value, and a resumed campaign renders byte-identical
// output.

// CellTimeoutError reports one grid cell killed by the per-cell
// wall-clock deadline. It is terminal: a wedged cell is deterministic, so
// retrying it would wedge again.
type CellTimeoutError struct {
	Study   string
	Index   int
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("experiment: %s cell %d exceeded the %v wall-clock deadline", e.Study, e.Index, e.Timeout)
}

// errCellPanic marks a Go panic raised inside a deadline-guarded cell.
// Panics are harness or simulator bugs — deterministic, never retried.
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
	var v T
	var err error
	for attempt := 0; ; attempt++ {
		v, err = guardCell(o, study, index, compute)
		if err == nil {
			break
		}
		if attempt >= o.Retries || !retryable(err) {
			return fmt.Errorf("%s cell %d: %w", study, index, err)
		}
		if tel := clumsy.DefaultTelemetry(); tel != nil {
			tel.Registry.Counter(telemetry.CtrCampaignCellsRetried).Inc()
			tel.StartRun(nil).CellRetry(study, index, attempt, err.Error())
		}
		if werr := backoff(o, attempt); werr != nil {
			return fmt.Errorf("%s cell %d: %w", study, index, werr)
		}
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

// guardCell runs compute under the per-cell wall-clock deadline. With no
// deadline configured it calls compute inline; with one, compute runs in
// a watchdog-supervised goroutine. On timeout the cell fails immediately
// and the wedged goroutine is abandoned — it holds only run-local state,
// and its eventual result (if any) lands in a buffered channel nobody
// reads. Cancellation is not raced here: compute observes the campaign
// context through Options.run and returns promptly on its own.
func guardCell[T any](o Options, study string, index int, compute func() (T, error)) (T, error) {
	if o.RunTimeout <= 0 {
		return compute()
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				done <- outcome{zero, fmt.Errorf("%w %s[%d]: %v", errCellPanic, study, index, r)}
			}
		}()
		v, err := compute()
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

// backoff sleeps the deterministic retry delay for the given attempt
// (RetryBackoff << attempt, capped at 30s), returning early if the
// campaign is cancelled while waiting.
func backoff(o Options, attempt int) error {
	d := o.RetryBackoff << attempt
	if max := 30 * time.Second; d > max || d <= 0 {
		d = max
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-o.ctx().Done():
		return o.ctx().Err()
	case <-timer.C:
		return nil
	}
}

// retryable reports whether err is a transient host failure worth
// retrying. Sim-semantic outcomes are pure functions of the
// configuration — retrying them burns wall-clock to reach the identical
// result, or worse, papers over a modelling bug — so they are terminal,
// as are cancellation, deadline kills, and in-cell panics. Everything
// else (I/O errors, resource exhaustion) is assumed transient.
func retryable(err error) bool {
	var te *CellTimeoutError
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, errCellPanic),
		errors.As(err, &te),
		simSemantic(err):
		return false
	}
	return true
}

// simSemantic reports whether err is a simulated outcome rather than a
// host failure: these never retry.
func simSemantic(err error) bool {
	var ae *simmem.AccessError
	return errors.Is(err, clumsy.ErrDropRateExceeded) ||
		errors.Is(err, clumsy.ErrWatchdog) ||
		errors.Is(err, clumsy.ErrAppPanic) ||
		errors.Is(err, clumsy.ErrStateCorrupt) ||
		errors.Is(err, radix.ErrLoop) ||
		errors.As(err, &ae)
}
