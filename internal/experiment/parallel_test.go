package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clumsy/internal/telemetry"
)

func TestParallelForVisitsEveryIndex(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 100
	var hits [n]int32
	if err := parallelFor(context.Background(), n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	err := parallelFor(context.Background(), 50, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestParallelForSerialFallback: with one worker the grid runs its items
// in index order.
func TestParallelForSerialFallback(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	order := []int{}
	if err := parallelFor(context.Background(), 5, func(i int) error {
		order = append(order, i) // safe: one worker, read after the grid returns
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("one worker ran the items out of order: %v", order)
		}
	}
}

func TestParallelForZero(t *testing.T) {
	if err := parallelFor(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("zero-length loop should not invoke fn")
	}
}

// TestParallelForEarlyCancel is the regression test for the early-cancel
// behaviour: after the first error, the feeder must stop issuing new work
// instead of draining the full grid. The old implementation executed all n
// items; the fixed one runs at most a few items per worker.
func TestParallelForEarlyCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	boom := errors.New("boom")
	errored := make(chan struct{})
	var calls atomic.Int32
	err := parallelFor(context.Background(), n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			close(errored)
			return boom
		}
		// Park the other workers until the failure has fired so the test
		// observes cancellation rather than a fast grid finishing first.
		<-errored
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got > n/2 {
		t.Fatalf("executed %d of %d items after the first error; early-cancel is not working", got, n)
	}
}

// TestParallelForMonitor checks that the installed grid monitor observes
// every run, keeps consistent progress, and feeds the registry — with the
// monitor shared by concurrent workers (exercised under -race).
func TestParallelForMonitor(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	reg := telemetry.NewRegistry()
	var events atomic.Int32
	var p telemetry.Progress // the last progress reported
	mon := &telemetry.RunMonitor{Registry: reg}
	mon.OnProgress = func(q telemetry.Progress) {
		events.Add(1)
		if q.Done < 1 || q.Done > q.Total {
			t.Errorf("inconsistent progress: %d/%d", q.Done, q.Total)
		}
		p = q
	}
	SetMonitor(mon)
	defer SetMonitor(nil)

	const n = 64
	if err := parallelFor(context.Background(), n, func(i int) error {
		time.Sleep(50 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := events.Load(); got != n {
		t.Fatalf("OnProgress fired %d times, want %d", got, n)
	}
	if p.Done != n || p.Total != n {
		t.Fatalf("final progress %d/%d, want %d/%d", p.Done, p.Total, n, n)
	}
	if p.Busy <= 0 || p.AvgRun <= 0 {
		t.Fatalf("busy/avg not recorded: %+v", p)
	}
	if got := reg.Counter("experiment.runs").Load(); got != n {
		t.Fatalf("experiment.runs = %d, want %d", got, n)
	}
	if got := reg.Histogram("experiment.run_ms").Count(); got != n {
		t.Fatalf("experiment.run_ms count = %d, want %d", got, n)
	}
}

// TestParallelForJoinsDistinctErrors: the grid error must name every
// distinct failing cell (deduplicated, bounded), not just the first.
func TestParallelForJoinsDistinctErrors(t *testing.T) {
	old := runtime.GOMAXPROCS(1) // one worker keeps the failure set deterministic
	defer runtime.GOMAXPROCS(old)
	errA := errors.New("cell 3: disk full")
	err := parallelFor(context.Background(), 10, func(i int) error {
		if i == 3 {
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v", err)
	}

	// Four workers: workers that fail concurrently each contribute one
	// distinct message; duplicates collapse.
	runtime.GOMAXPROCS(4)
	start := make(chan struct{})
	err = parallelFor(context.Background(), 4, func(i int) error {
		if i == 0 {
			close(start)
		}
		<-start
		if i%2 == 0 {
			return errors.New("same failure")
		}
		return fmt.Errorf("distinct failure %d", i)
	})
	if err == nil {
		t.Fatal("failing grid returned nil")
	}
	if n := strings.Count(err.Error(), "same failure"); n > 1 {
		t.Fatalf("duplicate messages not collapsed: %v", err)
	}
}

// TestParallelForCancelledContext: a cancelled campaign context stops the
// grid and surfaces as the context error. The monitor counts and reports
// every item that never ran, drained by a worker or never issued, so the
// last progress report has done plus skipped at the grid's total. With one
// worker the items run in order and the set of never-run items is exact.
func TestParallelForCancelledContext(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	var last telemetry.Progress // the last progress reported
	mon := &telemetry.RunMonitor{OnProgress: func(p telemetry.Progress) { last = p }}
	SetMonitor(mon)
	defer SetMonitor(nil)

	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	var calls atomic.Int32
	err := parallelFor(ctx, n, func(i int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("one worker executed %d items after cancellation at the 3rd, want exactly 3", got)
	}
	if p := last; p.Done != 3 || p.Skipped != n-3 {
		t.Fatalf("monitor counted done %d, skipped %d; want 3 and %d", p.Done, p.Skipped, n-3)
	}

	// Four workers: cancellation still stops the grid early and returns
	// the context error, and every item is either done or skipped.
	runtime.GOMAXPROCS(4)
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls.Store(0)
	err = parallelFor(ctx2, n, func(i int) error {
		if calls.Add(1) == 3 {
			cancel2()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= n {
		t.Fatalf("all %d items ran despite cancellation", got)
	}
	if p := last; p.Done+p.Skipped != p.Total || p.Total != n {
		t.Fatalf("cancelled grid: done %d + skipped %d, total %d; want %d", p.Done, p.Skipped, p.Total, n)
	}

	// A failing grid stops the same way. The items before the failing one
	// wait for it, so the failure lands before the grid can finish.
	boom := errors.New("boom")
	failed := make(chan struct{})
	err = parallelFor(context.Background(), n, func(i int) error {
		if i == 2 {
			close(failed)
			return boom
		}
		<-failed
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing grid err = %v, want boom", err)
	}
	if p := last; p.Done+p.Skipped != p.Total || p.Total != n {
		t.Fatalf("failed grid: done %d + skipped %d, total %d; want %d", p.Done, p.Skipped, p.Total, n)
	}
}
