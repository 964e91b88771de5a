// Command clumsy regenerates the tables and figures of "A Case for Clumsy
// Packet Processors" (Mallik & Memik, MICRO-37 2004) from the Go
// reproduction, and runs individual simulations.
//
// Usage:
//
//	clumsy <command> [flags]
//
// The commands are the studies of the study registry in
// internal/experiment, plus run, stats, trace, list, and fleet -faulty N
// for one fleet simulation. Each command defines only the flags it reads;
// `clumsy <command> -h` lists them and `clumsy list` lists the commands.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"clumsy/internal/apps"
	"clumsy/internal/atomicio"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/cluster"
	"clumsy/internal/experiment"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, exitMessage(err))
		os.Exit(1)
	}
}

// exitMessage is the line main prints for a failed command: the error
// under one "clumsy:" prefix, which the simulator's own errors already
// carry.
func exitMessage(err error) string {
	return "clumsy: " + strings.TrimPrefix(err.Error(), "clumsy: ")
}

// cliOpts holds every value a command's flags can set. A command's FlagSet
// defines only the flags that command reads; the others keep their zero
// values.
type cliOpts struct {
	opt    experiment.Options // a study's scale and campaign knobs
	run    clumsy.Config      // one simulation's flags (run, stats)
	fleet  cluster.Config     // the flags only fleet -faulty N reads
	wl     workload.Spec      // the workload-v2 flags
	app    string
	format string
	out    string
	parity bool

	journalPath string
	resume      bool
	tracePath   string // run/stats -trace input, trace -out output
	describe    bool

	// Observability.
	traceOut   string
	cpuprofile string
	memprofile string
	progress   bool

	tel *telemetry.Telemetry
}

// command is one subcommand: its flags, a check of the parsed flags that
// runs before anything is opened or simulated, and its action.
type command struct {
	fs    *flag.FlagSet
	help  string
	check func() error
	exec  func(w io.Writer) error
}

// tools are the commands that are not studies of the registry.
var tools = []string{"run", "stats", "trace", "list"}

// newCommand builds the named command over o, or reports it unknown.
func newCommand(name string, o *cliOpts) (command, bool) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	c := command{fs: fs, check: func() error { return nil }}
	switch name {
	case "list":
		c.help = "this text"
		c.exec = func(w io.Writer) error {
			usage(w)
			return nil
		}
	case "run":
		c.help = "one simulation with a full report"
		o.runFlags(fs)
		c.check = func() error { return o.checkRun(fs, "run") }
		c.exec = o.report
	case "stats":
		c.help = "one simulation like run, then the telemetry counter registry"
		o.runFlags(fs)
		fs.StringVar(&o.format, "format", "text", "output format: text (Prometheus exposition) or json")
		fs.BoolVar(&o.describe, "describe", false, "print the telemetry name registry instead of running a simulation")
		c.check = func() error {
			if o.describe {
				return checkDescribe(fs)
			}
			if err := o.checkRun(fs, "stats"); err != nil {
				return err
			}
			return textOrJSON("stats", o.format)
		}
		c.exec = o.stats
	case "trace":
		c.help = "dump an application's workload (text, or a binary trace file with -out)"
		fs.StringVar(&o.app, "app", "route", "application whose workload to dump")
		fs.IntVar(&o.opt.Packets, "packets", 0, "packets to generate (at least 20)")
		fs.Uint64Var(&o.opt.Seed, "seed", 0, "workload seed (0 = 1)")
		fs.StringVar(&o.tracePath, "out", "", "write the workload as a binary trace file (replay it with run -trace)")
		c.check = func() error { return notNegative("trace", flagValue{"packets", float64(o.opt.Packets)}) }
		c.exec = func(w io.Writer) error {
			return dumpTrace(w, o.app, max(o.opt.Packets, 20), max(o.opt.Seed, 1), o.tracePath)
		}
	default:
		st, ok := experiment.LookupStudy(name)
		if !ok {
			return c, false
		}
		c.help = st.Help
		o.studyFlags(fs, st)
		c.check = func() error { return st.Check(o.opt, o.app, o.format) }
		runStudy := func(w io.Writer) error { return st.Run(o.opt, o.app, o.format, w) }
		c.exec = runStudy
		if name == "fleet" {
			c.help += fmt.Sprintf("; with -faulty N, one fleet simulation instead.\n  Only a -faulty run reads -%s;\n  only the study reads -%s.",
				strings.Join(fleetRunFlags, " -"), strings.Join(fleetStudyFlags, " -"))
			fs.IntVar(&o.fleet.FaultyNodes, "faulty", -1, "run one fleet simulation with this many hostile nodes (-1 = run the degradation study)")
			fs.IntVar(&o.fleet.Nodes, "nodes", 0, "-faulty run: node count (0 = 8)")
			parsedFlag(fs, "dispatch", "-faulty run: dispatch policy, flow (the default) or least", &o.fleet.Dispatch, cluster.ParseDispatchPolicy)
			fs.Float64Var(&o.fleet.CycleTime, "cr", 0, "-faulty run: relative cycle time of every node (0 = 0.5)")
			fs.BoolVar(&o.fleet.Dynamic, "dynamic", false, "-faulty run: dynamic frequency control on every node")
			parsedFlag(fs, "recovery", "-faulty run: node fatal-error policy, drop or degrade (the default)", &o.fleet.Recovery, clumsy.ParseRecoveryPolicy)
			o.workloadFlags(fs)
			c.check = func() error { return o.checkFleet(fs, st) }
			c.exec = func(w io.Writer) error {
				if o.fleet.FaultyNodes < 0 {
					return runStudy(w)
				}
				return o.fleetRun(w)
			}
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: clumsy %s [flags]\n  %s\n\nflags:\n", name, c.help)
		fs.PrintDefaults()
	}
	return c, true
}

// studyFlags defines a study's flags: output, profiles and, unless it is a
// circuit figure, scale, observability and the resilient-campaign knobs,
// -app where the study reads one (defaulting to the study's app), and
// -recovery where the study runs under the campaign-wide policy.
func (o *cliOpts) studyFlags(fs *flag.FlagSet, st experiment.Study) {
	fs.StringVar(&o.format, "format", "text", "output format: text or csv")
	fs.StringVar(&o.out, "out", "", "write the output to this file atomically instead of stdout")
	if st.Circuit {
		o.profileFlags(fs)
		return
	}
	if st.ReadsApp() {
		fs.StringVar(&o.app, "app", st.App, "application")
	}
	if st.Recovery {
		parsedFlag(fs, "recovery", recoveryHelp, &o.opt.Recovery, clumsy.ParseRecoveryPolicy)
	}
	o.observabilityFlags(fs)
	fs.IntVar(&o.opt.Packets, "packets", 0, "packets per run (0 = default)")
	fs.IntVar(&o.opt.Trials, "trials", 0, "trials per configuration (0 = default)")
	fs.Float64Var(&o.opt.FaultScale, "scale", 0, "fault-rate multiplier (0 = default)")
	fs.Uint64Var(&o.opt.Seed, "seed", 0, "experiment seed (0 = default)")
	fs.Float64Var(&o.opt.MaxDropRate, "max-drop-rate", 0, "under drop or degrade, fail a run once its dropped fraction exceeds this (0 = unlimited)")
	fs.StringVar(&o.journalPath, "journal", "", "record every completed grid cell in this JSONL journal (atomic per cell)")
	fs.BoolVar(&o.resume, "resume", false, "with -journal, skip cells already recorded; the output is byte-identical to an uninterrupted run")
	fs.DurationVar(&o.opt.RunTimeout, "run-timeout", 0, "per-grid-cell wall-clock deadline, e.g. 90s (0 = none)")
}

// recoveryHelp documents -recovery, the fatal-error policy.
const recoveryHelp = "fatal-error policy: abort (the default; a fatal error ends the run, the paper's semantics), drop (drop the packet, roll memory back to the packet boundary, continue), or degrade (drop plus the escalating recovery ladder)"

// parsedFlag defines a flag whose value parse turns into *dst.
func parsedFlag[T any](fs *flag.FlagSet, name, help string, dst *T, parse func(string) (T, error)) {
	fs.Func(name, help, func(s string) (err error) {
		*dst, err = parse(s)
		return err
	})
}

// runFlags defines the flags of one simulation (run, stats).
func (o *cliOpts) runFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.run.App, "app", "route", "application")
	fs.IntVar(&o.run.Packets, "packets", 0, "packets (at least 1000)")
	fs.Uint64Var(&o.run.Seed, "seed", 0, "seed (0 = 1)")
	fs.Float64Var(&o.run.FaultScale, "scale", 0, "fault-rate multiplier (at least 1)")
	fs.Float64Var(&o.run.CycleTime, "cr", 1, "relative cycle time")
	fs.BoolVar(&o.run.Dynamic, "dynamic", false, "use the dynamic frequency controller")
	fs.BoolVar(&o.parity, "parity", false, "enable parity detection")
	fs.IntVar(&o.run.Strikes, "strikes", 1, "recovery strikes under parity")
	parsedFlag(fs, "recovery", recoveryHelp, &o.run.Recovery, clumsy.ParseRecoveryPolicy)
	parsedFlag(fs, "regime", "fault regime: paper (the default; memoryless), burst (Gilbert-Elliott droop episodes), or permanent (stuck-at cell map over the paper process)",
		&o.run.Regime, clumsy.ParseFaultRegime)
	fs.Float64Var(&o.run.MaxDropRate, "max-drop-rate", 0, "under drop or degrade, fail the run once its dropped fraction exceeds this (0 = unlimited)")
	fs.Float64Var(&o.run.WatchdogFactor, "watchdog", 0, "per-packet instruction budget as a multiple of the golden worst packet (0 = default 500)")
	fs.StringVar(&o.tracePath, "trace", "", "replay this binary trace file (from clumsy trace -out) instead of generating one")
	fs.IntVar(&o.run.ScrubInterval, "scrub", 0, "stateful apps: flow-table scrub interval in packets (0 = default 64, negative = disabled)")
	fs.IntVar(&o.run.StateStrikes, "state-strikes", 0, "stateful apps: per-record corruption strikes before the run is unrecoverable (0 = default 4)")
	o.workloadFlags(fs)
	fs.StringVar(&o.out, "out", "", "write the output to this file atomically instead of stdout")
	o.observabilityFlags(fs)
}

// workloadFlags defines the workload-v2 flags.
func (o *cliOpts) workloadFlags(fs *flag.FlagSet) {
	parsedFlag(fs, "shape", "workload temporal shape: steady, diurnal, flash, or onoff (unset = canonical trace)", &o.wl.Shape, workload.ParseShape)
	parsedFlag(fs, "shape2", "second shape multiplied onto -shape, mean rate renormalized to 1 (unset = no stacking)", &o.wl.Shape2, workload.ParseShape)
	fs.IntVar(&o.wl.Periods2, "periods2", 0, "cycle count of the -shape2 profile (0 = that shape's default)")
	fs.Float64Var(&o.wl.Adversarial, "adversarial", 0, "fraction of packets replaced by malformed wire images")
	fs.Float64Var(&o.wl.Churn, "churn", 0, "fraction of packets rewritten into fresh one-packet flows")
}

// observabilityFlags defines the host-side observability flags.
func (o *cliOpts) observabilityFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.traceOut, "trace-out", "", "write a JSONL event trace of every simulated run to this file")
	fs.BoolVar(&o.progress, "progress", false, "report progress on stderr")
	o.profileFlags(fs)
}

// profileFlags defines the pprof flags.
func (o *cliOpts) profileFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this file at exit")
}

// workloadFlagNames are the flags workloadFlags defines. fleetRunFlags
// are read only by a single fleet run, fleetStudyFlags only by the
// degradation study.
var (
	workloadFlagNames = []string{"shape", "shape2", "periods2", "adversarial", "churn"}
	fleetRunFlags     = append([]string{"nodes", "dispatch", "cr", "dynamic", "recovery", "max-drop-rate"}, workloadFlagNames...)
	fleetStudyFlags   = []string{"trials", "journal", "resume", "run-timeout"}
)

// checkFleet rejects the flags the chosen fleet mode does not read.
func (o *cliOpts) checkFleet(fs *flag.FlagSet, st experiment.Study) (err error) {
	unread, only := fleetRunFlags, "one fleet simulation (-faulty N)"
	if o.fleet.FaultyNodes >= 0 {
		unread, only = fleetStudyFlags, "the degradation study (no -faulty)"
	}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case slices.Contains(unread, f.Name):
			err = fmt.Errorf("fleet: -%s applies only to %s", f.Name, only)
		case f.Name == "recovery" && o.fleet.Recovery == clumsy.RecoverAbort:
			// The fleet replaces abort with its default, degrade.
			err = errors.New("fleet -faulty: -recovery abort does not apply; nodes run drop or degrade")
		}
	})
	switch {
	case err != nil:
		return err
	case o.fleet.FaultyNodes < 0:
		return st.Check(o.opt, o.app, o.format)
	}
	// One fleet simulation reads the study's scale flags but writes text
	// or JSON.
	if err := st.Check(o.opt, o.app, ""); err != nil {
		return err
	}
	if err := notNegative("fleet -faulty", flagValue{"nodes", float64(o.fleet.Nodes)},
		flagValue{"cr", o.fleet.CycleTime}); err != nil {
		return err
	}
	// The fleet clamps the hostile count to its size.
	if nodes := cmp.Or(o.fleet.Nodes, cluster.DefaultNodes); o.fleet.FaultyNodes > nodes {
		return fmt.Errorf("fleet -faulty: faulty must not exceed nodes (%d), got %d", nodes, o.fleet.FaultyNodes)
	}
	if err := o.checkWorkload("fleet -faulty"); err != nil {
		return err
	}
	return textOrJSON("fleet -faulty", o.format)
}

// checkRun rejects the run flags that runOne would floor, default or
// ignore, and the workload shapes a single run would ignore: on a batch
// trace a shape only scales the adversarial and churn probabilities. A
// replayed trace file is the whole workload, and only an app with a flow
// table reads the state flags.
func (o *cliOpts) checkRun(fs *flag.FlagSet, cmd string) error {
	if err := notNegative(cmd, flagValue{"packets", float64(o.run.Packets)}, flagValue{"scale", o.run.FaultScale}); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range append([]string{"packets"}, workloadFlagNames...) {
		if set[name] && o.tracePath != "" {
			return fmt.Errorf("%s: -%s does not apply to -trace, whose file is the workload", cmd, name)
		}
	}
	if app, err := apps.New(o.run.App); err == nil {
		if _, ok := app.(apps.StatefulApp); !ok {
			for _, name := range []string{"scrub", "state-strikes"} {
				if set[name] {
					return fmt.Errorf("%s: -%s applies only to an app with a flow table, and %s keeps none", cmd, name, o.run.App)
				}
			}
		}
	}
	switch {
	case set["strikes"] && !o.parity:
		return fmt.Errorf("%s: -strikes counts parity strikes, and -parity is off", cmd)
	case set["cr"] && o.run.Dynamic:
		return fmt.Errorf("%s: -cr fixes the clock, which the -dynamic controller sets", cmd)
	case o.run.CycleTime == 0:
		return fmt.Errorf("%s: -cr 0 would run at Cr=1; cr must be in (0, 1]", cmd)
	case o.parity && o.run.Strikes == 0:
		return fmt.Errorf("%s: -strikes 0 would run 1 strike; strikes must be in 1..3", cmd)
	case o.run.MaxDropRate > 0 && o.run.Recovery == clumsy.RecoverAbort:
		return fmt.Errorf("%s: -max-drop-rate applies only under -recovery drop or degrade", cmd)
	}
	if err := o.checkWorkload(cmd); err != nil {
		return err
	}
	if o.wl.Adversarial == 0 && o.wl.Churn == 0 {
		for _, f := range []struct {
			name  string
			shape workload.Shape
		}{{"shape", o.wl.Shape}, {"shape2", o.wl.Shape2}} {
			if f.shape != workload.ShapeSteady {
				return fmt.Errorf("%s: -%s shapes only -adversarial and -churn traffic, and both are 0", cmd, f.name)
			}
		}
	}
	return nil
}

// checkWorkload rejects the workload flags that workload.Spec would clamp,
// replace with a default or ignore.
func (o *cliOpts) checkWorkload(cmd string) error {
	adv, churn := o.wl.Adversarial, o.wl.Churn
	switch {
	case !(adv >= 0 && adv <= 1):
		return fmt.Errorf("%s: adversarial must be between 0 and 1, got %g", cmd, adv)
	case !(churn >= 0 && churn <= 1):
		return fmt.Errorf("%s: churn must be between 0 and 1, got %g", cmd, churn)
	case adv+churn > 1:
		return fmt.Errorf("%s: churn must not exceed 1-adversarial (%g), got %g", cmd, 1-adv, churn)
	}
	if err := notNegative(cmd, flagValue{"periods2", float64(o.wl.Periods2)}); err != nil {
		return err
	}
	if o.wl.Periods2 != 0 && o.wl.Shape2 == workload.ShapeSteady {
		return fmt.Errorf("%s: -periods2 counts the cycles of -shape2, which is unset", cmd)
	}
	return nil
}

// flagValue is a numeric flag's name and parsed value.
type flagValue struct {
	name  string
	value float64
}

// notNegative rejects the first negative flag value. The commands floor
// these flags or replace them with a default, so a negative value would
// run something other than what was asked.
func notNegative(cmd string, flags ...flagValue) error {
	for _, f := range flags {
		if f.value < 0 {
			return fmt.Errorf("%s: %s must not be negative, got %g", cmd, f.name, f.value)
		}
	}
	return nil
}

// checkDescribe rejects the flags stats -describe ignores: it prints the
// telemetry name registry as text, and reads only -out.
func checkDescribe(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "describe" && f.Name != "out" {
			err = fmt.Errorf("stats: -%s does not apply to -describe, which prints the name registry", f.Name)
		}
	})
	return err
}

// textOrJSON rejects an output format other than text or json.
func textOrJSON(cmd, format string) error {
	if format != "text" && format != "json" {
		return fmt.Errorf("%s: unknown format %q (want text or json)", cmd, format)
	}
	return nil
}

// stats executes one run exactly like `run` (same defaults and seeding, so
// its counts match a trace captured by `run -trace-out` with the same
// flags), then dumps the counter registry.
func (o *cliOpts) stats(w io.Writer) error {
	if o.describe {
		return describeNames(w)
	}
	if _, err := o.runOne(); err != nil {
		return err
	}
	if o.format == "json" {
		return o.tel.Registry.WriteJSON(w)
	}
	return o.tel.Registry.WritePrometheus(w)
}

// fleetRun runs one fleet simulation: N nodes, the given hostile count,
// full health lifecycle, SLO report (text, or -format json).
func (o *cliOpts) fleetRun(w io.Writer) error {
	cfg := o.fleet
	cfg.App = o.app
	cfg.Packets = o.opt.Packets
	cfg.Seed = o.opt.Seed
	cfg.FaultScale = o.opt.FaultScale
	cfg.NodeMaxDropRate = o.opt.MaxDropRate
	if !o.wl.IsZero() {
		cfg.Workload = &o.wl
	}
	r, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	if o.format == "json" {
		return r.WriteJSON(w)
	}
	return r.WriteText(w)
}

// run parses the command's flags, stands up the observability stack
// (telemetry hub, trace sink, grid monitor, pprof profiles), and executes
// the command.
func run(args []string, w io.Writer) (err error) {
	if len(args) == 0 {
		usage(w)
		return fmt.Errorf("missing experiment name")
	}
	o := &cliOpts{}
	c, ok := newCommand(args[0], o)
	if !ok {
		usage(w)
		return fmt.Errorf("unknown experiment %q", args[0])
	}
	if err := c.fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if rest := c.fs.Args(); len(rest) > 0 {
		return fmt.Errorf("%s: unexpected arguments %v (flags go before arguments)", args[0], rest)
	}
	if o.resume && o.journalPath == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	if err := c.check(); err != nil {
		return err
	}

	// Campaign context: the first SIGINT/SIGTERM cancels it, letting the
	// experiment grids drain in-flight cells, flush the journal, and report
	// partial progress. A second signal force-quits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.opt.Ctx = ctx
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\nclumsy: %v — stopping campaign (send again to force quit)\n", s)
		cancel()
		if _, ok := <-sig; ok {
			os.Exit(130)
		}
	}()

	// Observability stack. The hub is installed as the process default so
	// that every clumsy.Run — including the ones buried inside experiment
	// grids — is counted and traced without plumbing changes.
	o.tel = telemetry.New()
	clumsy.SetDefaultTelemetry(o.tel)
	defer clumsy.SetDefaultTelemetry(nil)
	if o.traceOut != "" {
		// Atomic: the trace file appears under its final name only once the
		// sink is flushed and closed, so a killed command never leaves a
		// truncated JSONL behind.
		f, err := atomicio.Create(o.traceOut)
		if err != nil {
			return err
		}
		sink := telemetry.NewJSONLSink(f)
		o.tel.SetSink(sink)
		defer sink.Close()
	}
	if o.journalPath != "" {
		j, loaded, jerr := experiment.OpenJournal(o.journalPath, o.resume)
		if jerr != nil {
			return jerr
		}
		o.opt.Journal = j
		if o.resume {
			fmt.Fprintf(os.Stderr, "clumsy: resuming campaign from %s (%d cells recorded)\n", o.journalPath, loaded)
			o.tel.StartRun(nil).CampaignResume(o.journalPath, loaded)
		}
	}
	if o.progress {
		mon := &telemetry.RunMonitor{Registry: o.tel.Registry, OnProgress: printProgress}
		experiment.SetMonitor(mon)
		defer experiment.SetMonitor(nil)
	}
	if o.cpuprofile != "" {
		f, err := atomicio.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "clumsy: closing cpu profile: %v\n", err)
			}
		}()
	}
	if o.memprofile != "" {
		defer writeHeapProfile(o.memprofile)
	}
	if o.out != "" {
		// Atomic: a cancelled or failed command leaves no partial file.
		err = atomicio.WriteFile(o.out, c.exec)
	} else {
		err = c.exec(w)
	}
	if errors.Is(err, context.Canceled) {
		// Interrupted: report how much of the campaign survives, and how to
		// pick it back up.
		if j := o.opt.Journal; j != nil {
			fmt.Fprintf(os.Stderr, "clumsy: interrupted — %d cells journaled to %s; rerun with -resume to continue\n",
				j.Len(), j.Path())
		} else {
			fmt.Fprintln(os.Stderr, "clumsy: interrupted — no journal kept (use -journal to make campaigns resumable)")
		}
	}
	return err
}

// printProgress renders one grid-progress line on stderr (carriage-return
// updated in place, finished with a newline once every run is done or
// skipped).
func printProgress(p telemetry.Progress) {
	// Drained cells (grid failure or cancellation) would otherwise vanish
	// from the count: Done never reaches Total and the line looks stuck.
	skipped := ""
	if p.Skipped > 0 {
		skipped = fmt.Sprintf("  skipped=%d", p.Skipped)
	}
	fmt.Fprintf(os.Stderr, "\r%d/%d runs  avg %v/run  elapsed %v  workers %.0f%% busy%s   ",
		p.Done, p.Total,
		p.AvgRun.Round(time.Millisecond), p.Elapsed.Round(time.Millisecond),
		p.Utilization()*100, skipped)
	if p.Done+p.Skipped >= p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

// writeHeapProfile dumps the heap profile at exit; failures are reported
// but do not change the command's outcome.
func writeHeapProfile(path string) {
	runtime.GC()
	if err := atomicio.WriteFile(path, pprof.WriteHeapProfile); err != nil {
		fmt.Fprintln(os.Stderr, "clumsy: memprofile:", err)
	}
}

// describeNames prints the telemetry name registry — the same table the
// telemnames analyzer enforces (one of the nine clumsylint invariants;
// see DESIGN.md "Enforced invariants") — so dashboards and scripts can
// discover every instrument and event the simulator can emit.
func describeNames(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	kind := telemetry.Kind(-1)
	for _, spec := range telemetry.Names() {
		if spec.Kind != kind {
			if kind != telemetry.Kind(-1) {
				fmt.Fprintln(tw)
			}
			kind = spec.Kind
			fmt.Fprintf(tw, "%sS\n", strings.ToUpper(kind.String()))
		}
		fmt.Fprintf(tw, "  %s\t%s\n", spec.Name, spec.Help)
	}
	return tw.Flush()
}

// dumpTrace generates an application's workload and either writes it as a
// binary trace file or prints a human-readable summary.
func dumpTrace(w io.Writer, appName string, packets int, seed uint64, out string) error {
	app, err := apps.New(appName)
	if err != nil {
		return err
	}
	tr, err := packet.Generate(app.TraceConfig(packets, seed))
	if err != nil {
		return err
	}
	if out != "" {
		if err := atomicio.WriteFile(out, tr.Serialize); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d packets to %s\n", len(tr.Packets), out)
		return nil
	}
	fmt.Fprintf(w, "# %s workload, %d packets, seed %d\n", appName, packets, seed)
	fmt.Fprintf(w, "%-5s %-17s %-17s %-5s %-4s %-5s %s\n", "idx", "src", "dst", "proto", "ttl", "len", "payload")
	for i := range tr.Packets {
		p := &tr.Packets[i]
		preview := ""
		for _, b := range p.Payload {
			if len(preview) >= 24 {
				break
			}
			if b >= 0x20 && b < 0x7f {
				preview += string(rune(b))
			} else {
				preview += "."
			}
		}
		fmt.Fprintf(w, "%-5d %-17s %-17s %-5d %-4d %-5d %q\n",
			i, ipString(p.Src), ipString(p.Dst), p.Proto, p.TTL, len(p.Payload), preview)
	}
	return nil
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff)
}

// runOne executes the one simulation the run/stats flags configure. With
// -trace, the stored trace is replayed instead of generating one.
func (o *cliOpts) runOne() (*clumsy.Result, error) {
	cfg := o.run
	cfg.Packets = max(cfg.Packets, 1000)
	cfg.Seed = max(cfg.Seed, 1)
	cfg.FaultScale = max(cfg.FaultScale, 1)
	if o.parity {
		cfg.Detection = cache.DetectionParity
	}
	if !o.wl.IsZero() {
		cfg.Workload = &o.wl
	}
	if o.tracePath == "" {
		return clumsy.Run(cfg)
	}
	f, err := os.Open(o.tracePath)
	if err != nil {
		return nil, err
	}
	tr, terr := packet.ReadTrace(f)
	f.Close() //lint:errcheck-ok — read-only file, nothing to flush
	if terr != nil {
		return nil, terr
	}
	return clumsy.RunWithTrace(cfg, tr)
}

// report executes one run and prints its full human-readable report.
func (o *cliOpts) report(w io.Writer) error {
	res, err := o.runOne()
	if err != nil {
		return err
	}
	cfg := res.Config
	e := metrics.DefaultExponents()
	fmt.Fprintf(w, "app %s  Cr=%g dynamic=%v detection=%v strikes=%d scale=%g\n",
		cfg.App, cfg.CycleTime, cfg.Dynamic, cfg.Detection, cfg.Strikes, cfg.FaultScale)
	fmt.Fprintf(w, "golden: %d instrs, %.0f cycles, %.1f cycles/packet, %.4g J\n",
		res.GoldenInstrs, res.GoldenCycles, res.GoldenDelay, res.GoldenEnergy.Total())
	fmt.Fprintf(w, "clumsy: %d instrs, %.0f cycles, %.1f cycles/packet, %.4g J\n",
		res.Instrs, res.Cycles, res.Delay, res.Energy.Total())
	if res.Cycles > 0 {
		bd := res.Breakdown
		pct := func(v float64) float64 { return v / res.Cycles * 100 }
		fmt.Fprintf(w, "cycles: compute %.0f (%.1f%%), l1d %.0f (%.1f%%), l1i %.0f (%.1f%%), l2 %.0f (%.1f%%), mem %.0f (%.1f%%), recovery %.0f (%.1f%%), freq-penalty %.0f (%.1f%%)\n",
			bd.Compute, pct(bd.Compute), bd.L1D, pct(bd.L1D), bd.L1I, pct(bd.L1I),
			bd.L2, pct(bd.L2), bd.Mem, pct(bd.Mem), bd.Recovery, pct(bd.Recovery),
			bd.FreqPenalty, pct(bd.FreqPenalty))
	}
	fmt.Fprintf(w, "packets: %d/%d processed, fallibility %.4f, fatal %v\n",
		res.Report.Processed, res.Report.GoldenPackets, res.Fallibility(), res.Report.Fatal)
	if cfg.Recovery == clumsy.RecoverDrop || cfg.Recovery == clumsy.RecoverDegrade {
		fmt.Fprintf(w, "containment: %d dropped, %d contained, %d pages restored, drop rate %.5f\n",
			res.Report.Dropped, res.Contained, res.RestoredPages, res.Report.DropRate())
		if res.FatalErr != nil {
			fmt.Fprintf(w, "  run still ended fatally: %v\n", res.FatalErr)
		}
	}
	switch cfg.Regime {
	case clumsy.RegimePaper:
		// The memoryless regime has no regime-specific counters to print.
	case clumsy.RegimeBurst:
		fmt.Fprintf(w, "burst: %d bad-state episodes\n", res.BurstEpisodes)
	case clumsy.RegimePermanent:
		fmt.Fprintf(w, "stuck-at: %d permanent hits, %d intermittent hits\n",
			res.PermanentHits, res.IntermittentHits)
	}
	if res.LinesDisabled > 0 || res.Recovery.LineDisables > 0 || res.SpatialBackoffs > 0 {
		fmt.Fprintf(w, "ladder: %d lines disabled (%.1f%% capacity dead), %d re-enabled, %d bypass accesses, %d spatial back-offs\n",
			res.LinesDisabled, res.DisabledFrac*100, res.Recovery.LineReEnables,
			res.Recovery.Bypasses, res.SpatialBackoffs)
	}
	if res.StateRecords > 0 {
		fmt.Fprintf(w, "state: %d flow records; %d mismatches detected, %d evicted, %d rebuilt, %d scrub passes; end-of-run divergence %d (%d undetected)\n",
			res.StateRecords, res.StateDetected, res.StateEvictions, res.StateRebuilds,
			res.StateScrubs, res.StateDiverged, res.StateUndetected)
	}
	fmt.Fprintf(w, "faults: %d read, %d write; parity errors %d, retries %d, recoveries %d\n",
		res.Recovery.FaultsOnRead, res.Recovery.FaultsOnWrite,
		res.Recovery.ParityErrors, res.Recovery.Retries, res.Recovery.Recoveries)
	fmt.Fprintf(w, "L1D: %d accesses, %.2f%% miss rate\n",
		res.L1DStats.Accesses(), res.L1DStats.MissRate()*100)
	if res.LevelPackets != nil {
		fmt.Fprintf(w, "dynamic: %d switches, packets per level %v\n", res.Switches, res.LevelPackets)
		for _, ev := range res.Timeline {
			fmt.Fprintf(w, "  packet %6d -> Cr = %g\n", ev.Packet, ev.CycleTime)
		}
	}
	fmt.Fprintf(w, "energy-delay^2-fallibility^2: %.4g (golden %.4g, ratio %.3f)\n",
		res.EDF(e), res.GoldenEDF(e), res.EDF(e)/res.GoldenEDF(e))
	for _, name := range res.Report.StructureNames() {
		if p := res.Report.ErrorProbability(name); p > 0 {
			fmt.Fprintf(w, "  error[%s] = %.5f\n", name, p)
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: clumsy <command> [flags]

Each command defines only the flags it reads: "clumsy <command> -h" lists
them. Flags go after the command name.

studies (-format text|csv; resumable with -journal f.jsonl -resume):
`)
	for _, st := range experiment.Studies() {
		fmt.Fprintf(w, "  %-16s %s\n", st.Name, st.Help)
	}
	fmt.Fprint(w, "\nsingle runs and tools:\n  fleet -faulty N  one fleet simulation with an SLO report\n")
	for _, name := range tools {
		c, _ := newCommand(name, &cliOpts{})
		fmt.Fprintf(w, "  %-16s %s\n", name, c.help)
	}
}
