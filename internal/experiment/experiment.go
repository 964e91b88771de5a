// Package experiment regenerates every table and figure of the paper's
// evaluation (Table I, Figures 1–12). Each experiment returns structured
// data that the CLI and the benchmark harness render as text; DESIGN.md
// maps experiment identifiers to the modules they exercise.
package experiment

import (
	"context"
	"fmt"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/metrics"
)

// Options scale the simulation experiments. The defaults trade an
// afternoon-scale simulation campaign for a minutes-scale one while keeping
// the statistics meaningful; raise Packets and Trials to tighten the error
// bars. Every field that can change a Result must flow into the journal
// fingerprint (see Options.fingerprint) or carry a fingerprint annotation;
// the fpcover analyzer enforces this.
//
//lint:fingerprint-source
type Options struct {
	Packets    int     // packets per run
	Trials     int     // independent seeds averaged per configuration
	FaultScale float64 // fault-rate multiplier (1 = the paper's physical rate)
	Exponents  metrics.EDFExponents
	Seed       uint64 // base experiment seed

	// Recovery is the fatal-error policy applied to every run of every
	// experiment. The zero value (RecoverAbort) reproduces the paper's
	// measurement semantics; RecoverDrop regenerates the tables and figures
	// under packet-level fault containment instead.
	Recovery clumsy.RecoveryPolicy
	// MaxDropRate is the graceful-degradation threshold forwarded to every
	// run under RecoverDrop (0 = unlimited).
	MaxDropRate float64

	// Ctx cancels a running campaign: every simulation checks it before
	// starting and every grid stops issuing work once it is done, so a
	// SIGINT propagates promptly instead of finishing the sweep. Nil means
	// context.Background() (never cancelled).
	//lint:fingerprint-exempt cancellation steers execution, not results
	Ctx context.Context

	// RunTimeout is the wall-clock deadline of one grid cell (one
	// journal-able unit of a study, typically Trials runs of one
	// configuration). A wedged cell fails with a diagnostic naming the
	// study and cell instead of hanging the whole grid. Zero disables the
	// watchdog.
	//lint:fingerprint-exempt wall-clock guard; a timed-out cell errors rather than changing a Result
	RunTimeout time.Duration

	// Journal, when non-nil, makes the campaign durable: every completed
	// grid cell is recorded (atomically, keyed by a content hash of study,
	// cell index, and configuration) and cells already present are
	// satisfied from the journal instead of recomputed, so a killed
	// campaign resumes byte-identically.
	//lint:fingerprint-exempt the journal handle is where fingerprints go, not an input to them
	Journal *Journal

	// afterCell, when non-nil, observes every computed (not
	// journal-skipped) cell. Test hook: lets a test cancel Ctx mid-grid at
	// a deterministic point.
	//lint:fingerprint-exempt test observation hook, never changes a cell
	afterCell func(study string, index int)

	// golden shares golden passes among the runs of one study call;
	// withDefaults creates it, so it lives for that call.
	//lint:fingerprint-exempt shares a golden pass only among runs whose golden inputs agree, so no Result changes
	golden *clumsy.GoldenCache
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{
		Packets:    2000,
		Trials:     3,
		FaultScale: 1,
		Exponents:  metrics.DefaultExponents(),
		Seed:       1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Packets <= 0 {
		o.Packets = d.Packets
	}
	if o.Trials <= 0 {
		o.Trials = d.Trials
	}
	if o.FaultScale <= 0 {
		o.FaultScale = d.FaultScale
	}
	if o.Exponents == (metrics.EDFExponents{}) {
		o.Exponents = d.Exponents
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.golden == nil {
		o.golden = new(clumsy.GoldenCache)
	}
	return o
}

// edfDefaults resolves the options of a study that runs at EDFFaultScale
// unless the caller chose a fault scale.
func (o Options) edfDefaults() Options {
	if o.FaultScale == 0 {
		o.FaultScale = EDFFaultScale
	}
	return o.withDefaults()
}

// scaleNote is the note under a study's table that records its scale,
// followed by the study's own remarks.
func (o Options) scaleNote(remarks string) string {
	return fmt.Sprintf("%d packets/run, %d trials, fault scale %g", o.Packets, o.Trials, o.FaultScale) + remarks
}

// ctx returns the campaign context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// trialSeed derives the seed of one trial.
func (o Options) trialSeed(trial int) uint64 {
	return o.Seed*0x9e3779b9 + uint64(trial)*0x85ebca6b + 1
}

// run executes one configuration with the experiment-wide recovery policy
// applied. Every experiment goes through this wrapper so a single Options
// switch regenerates the whole evaluation under drop-and-continue, and a
// cancelled campaign context stops every study between runs, including
// between the trials of one cell. The golden pass comes from the study's
// cache, shared by every run whose golden pass reads the same inputs.
func (o Options) run(cfg clumsy.Config) (*clumsy.Result, error) {
	if err := o.ctx().Err(); err != nil {
		return nil, err
	}
	cfg.Recovery = o.Recovery
	cfg.MaxDropRate = o.MaxDropRate
	return o.golden.Run(cfg)
}

// trials runs cfg once per trial and passes each Result to add in trial
// order. Trial k runs under trialSeed(k) in every cell, so the cells of a
// grid compare common random numbers.
func (o Options) trials(cfg clumsy.Config, add func(*clumsy.Result)) error {
	for trial := 0; trial < o.Trials; trial++ {
		cfg.Seed = o.trialSeed(trial)
		res, err := o.run(cfg)
		if err != nil {
			return err
		}
		add(res)
	}
	return nil
}

// CycleTimes are the paper's operating points, slowest first.
var CycleTimes = []float64{1, 0.75, 0.5, 0.25}

// cycleTimeLabel renders an operating point the way the figures do
// (relative clock cycle in percent).
func cycleTimeLabel(cr float64) string {
	return fmt.Sprintf("%g%%", cr*100)
}
