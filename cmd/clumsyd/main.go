// Command clumsyd is the long-lived campaign service: a crash-tolerant
// daemon that schedules journaled experiment campaigns over an HTTP/JSON
// control plane. Submissions wait in a bounded queue (backpressure via
// 429 + Retry-After), run under per-campaign supervisors with bounded
// restart-with-resume, and survive any kill point: on startup the daemon
// re-adopts every incomplete campaign from its journal and finishes it
// byte-identically to an uninterrupted run. SIGTERM/SIGINT drains
// gracefully — stop admitting, finish or checkpoint in-flight campaigns,
// exit 0; a second signal force-quits with exit 130 (journals stay
// replayable either way).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clumsy/internal/atomicio"
	"clumsy/internal/clumsy"
	"clumsy/internal/experiment"
	"clumsy/internal/service"
	"clumsy/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("clumsyd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address for the control plane")
	dataDir := fs.String("data", "clumsyd-data", "durable campaign directory (specs, journals, results)")
	maxConc := fs.Int("max-concurrent", 2, "supervisor slots (campaigns running at once)")
	queueDepth := fs.Int("queue-depth", 8, "bounded submission queue; full rejects with 429")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "per-attempt watchdog deadline (0 = none)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-grid-cell wall-clock watchdog (0 = none)")
	maxRestarts := fs.Int("max-restarts", 2, "supervised restart-with-resume budget per campaign")
	drainGrace := fs.Duration("drain-grace", 30*time.Second, "how long a drain waits before checkpointing in-flight campaigns")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: clumsyd [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nstudies (a spec's \"study\"; the same registry as clumsy):\n")
		for _, st := range experiment.Studies() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", st.Name, st.Help)
		}
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"max-concurrent", *maxConc < 0},
		{"queue-depth", *queueDepth < 0},
		{"attempt-timeout", *attemptTimeout < 0},
		{"cell-timeout", *cellTimeout < 0},
		{"max-restarts", *maxRestarts < 0},
		{"drain-grace", *drainGrace < 0},
	} {
		if f.negative {
			fmt.Fprintf(os.Stderr, "clumsyd: -%s must not be negative, got %v\n", f.name, fs.Lookup(f.name).Value)
			return 2
		}
	}

	// The crashtest rig arms deterministic I/O faults through the
	// environment; a clean environment leaves this a no-op.
	if armed, err := atomicio.ArmFaultFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "clumsyd:", err)
		return 2
	} else if armed {
		fmt.Fprintf(os.Stderr, "clumsyd: I/O fault injection armed (%s=%s)\n", atomicio.FaultEnv, os.Getenv(atomicio.FaultEnv))
	}

	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)

	svc, err := service.New(service.Config{
		DataDir:        *dataDir,
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queueDepth,
		AttemptTimeout: *attemptTimeout,
		CellTimeout:    *cellTimeout,
		MaxRestarts:    *maxRestarts,
		Telemetry:      tel,
		Log:            os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clumsyd:", err)
		return 1
	}
	if svc.Recovered > 0 {
		fmt.Fprintf(os.Stderr, "clumsyd: recovered %d incomplete campaign(s) on start\n", svc.Recovered)
	}

	// The handler goes in before the address is announced: a signal that
	// arrives once a client can see the daemon must drain it, not kill it.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clumsyd:", err)
		svc.Close()
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "clumsyd: serving on %s (data %s)\n", ln.Addr(), *dataDir)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "clumsyd:", err)
		svc.Close()
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "clumsyd: %s: draining (send again to force quit)\n", s)
	}

	// Second signal during the drain force-quits. Journals are written
	// atomically per cell, so even a force quit leaves resumable state.
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "clumsyd: force quit")
			os.Exit(130)
		}
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	svc.Drain(drainCtx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	srv.Shutdown(sctx) //lint:errcheck-ok — the drain already checkpointed everything durable
	fmt.Fprintln(os.Stderr, "clumsyd: drained, exiting")
	return 0
}
