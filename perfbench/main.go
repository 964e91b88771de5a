// Command perfbench is the repository's benchmark. It drives the simulator
// through its public packages only and measures four closed-loop
// workloads, each separating one layer of cost:
//
//	study-short   experiment.AllEDF on short traces: fixed per-run cost
//	paper-long    one long clumsy.Run, abort policy, paper fault regime
//	contain-long  the same run under degrade + burst: containment checkpoints
//	fleet-long    one cluster.Run of 8 nodes, 2 of them faulty
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload paper-long --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (simulated packets per
// reference second over all operations, the median reference seconds of
// set-up in fresh processes, the median MB allocated per operation; a
// reference second is CPU time scaled by a fixed kernel's, refkernel.go);
// with --trace 1 it times calls into each layer from this package's own
// files and prints the per-layer metrics. The last line of stdout is one
// JSON object with the keys correct, attempted, failed and metrics; the line before it
// records the workload's definition, its fingerprint and the host.
//
// Every operation's exact simulated output is hashed and compared with a
// digest pinned in pins.json (see pins.go); regenerate the pins after a
// change that is meant to alter simulated results with
//
//	bash perfbench/run.sh --write-pins perfbench/pins.json
//
// The self-test (go test in this directory) runs every workload at reduced
// size and checks the metric names, units and the digest check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// setupRuns is the number of fresh-process set-ups whose median is
// setup_s.
const setupRuns = 5

// probeEnv marks a child process that only performs one workload set-up,
// so set-up time is measured in a fresh process every time.
const probeEnv = "PERFBENCH_SETUP_PROBE"

func main() {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbe(os.Args[1:], os.Stderr))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	small     bool
	writePins string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: study-short, paper-long, contain-long or fleet-long")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.BoolVar(&o.small, "small", false, "reduced sizes (self-test); digests are not pinned at this size")
	fs.StringVar(&o.writePins, "write-pins", "", "compute the pinned digests of the workload (all if -workload is empty) and write them to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceLevel)
	}
	o.trace = *traceLevel == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func (o options) sizes() sizes {
	if o.small {
		return smallSizes
	}
	return fullSizes
}

func cli(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	procs := setGOMAXPROCS()
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ws := workloads(o.sizes())
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	if o.writePins != "" {
		if o.workload != "" {
			w, err := findWorkload(ws, o.workload)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			ws = []*workload{w}
		}
		if err := writePins(ws, p, o.writePins, logf); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	w, err := findWorkload(ws, o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, ok := p[w.def.key()]; !ok && !o.small {
		fmt.Fprintf(stderr, "perfbench: no pinned digests for %s definition %s; run with --write-pins\n", w.name, w.def.key())
		return 1
	}
	info := describe(w, o, procs)
	res := bench(w, ws, o, p, spawnProbe(o, stderr), logf)
	if err := json.NewEncoder(stdout).Encode(info); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts operations and compares each digest with its pin.
type checker struct {
	pins      pins
	key       string
	attempted int
	failed    int
	logf      func(string, ...any)
}

// check records one operation that took d and reports whether it
// succeeded: err is nil and, for a pinned seed, the digest matches.
func (c *checker) check(what string, seed uint64, d time.Duration, pooled bool, digest string, err error) bool {
	c.attempted++
	status := "unpinned"
	if err == nil && pooled {
		if want, ok := c.pins.pinned(c.key, seed); ok {
			status = "pinned"
			if digest != want {
				err = fmt.Errorf("digest %s, pinned %s", digest, want)
			}
		}
	}
	if err != nil {
		c.failed++
		c.logf("FAIL %s seed=%d: %v", what, seed, err)
		return false
	}
	c.logf("ok %s seed=%d digest=%s %s %.2fms", what, seed, digest, status, float64(d)/1e6)
	return true
}

// fail records a failed operation that has no seed.
func (c *checker) fail(what string, err error) {
	c.attempted++
	c.failed++
	c.logf("FAIL %s: %v", what, err)
}

// bench runs the workload for o.seconds and returns its result. Failures
// of operations are counted, never fatal: the result reports them.
func bench(w *workload, ws []*workload, o options, p pins, probe func() (time.Duration, error), logf func(string, ...any)) result {
	chk := &checker{pins: p, key: w.def.key(), logf: logf}
	var m map[string]metric
	if o.trace {
		m = traced(w, ws, o, chk)
	} else {
		m = endToEnd(w, o, chk, probe)
	}
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}
}

// endToEnd measures the workload with tracing off: set-up in fresh
// processes, then a closed loop of operations until the time is up.
//
// Every time is CPU time in reference seconds (see refkernel.go). Other
// tenants of the shared host slow the benchmark for seconds to minutes
// at a time; wall time moves with them by up to half, and so does even
// the CPU time of the same work, but its ratio to the reference kernel's
// time at the same moment moves far less.
func endToEnd(w *workload, o options, chk *checker, probe func() (time.Duration, error)) map[string]metric {
	ref := newRefKernel()
	var setups []float64
	prev := ref.time()
	for i := 0; i < setupRuns; i++ {
		d, err := probe()
		next := ref.time()
		if err != nil {
			chk.fail("set-up probe", err)
		} else {
			setups = append(setups, refSeconds(d, prev, next))
		}
		prev = next
	}

	// This process's own set-up: the same untimed warm-up operation.
	seed := warmupSeed(o.seed)
	start := time.Now()
	_, digest, err := w.op(seed)
	chk.check(w.name+" warm-up", seed, time.Since(start), false, digest, err)

	// The rate is the packets of every checked operation over their total
	// CPU time, in reference seconds by the kernel runs between them.
	var packets int
	var cpuTotal time.Duration
	var allocs []float64
	kernel := []time.Duration{ref.time()}
	var before, after runtime.MemStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed, pooled := iterSeed(w.pool, o.seed, i)
		runtime.ReadMemStats(&before)
		cpu := cpuTime()
		start := time.Now()
		n, digest, err := w.op(seed)
		elapsed := time.Since(start)
		cpu = cpuTime() - cpu
		runtime.ReadMemStats(&after)
		kernel = append(kernel, ref.time())
		if chk.check(w.name, seed, elapsed, pooled, digest, err) {
			packets += n
			cpuTotal += cpu
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
	}
	refTotal, rate := refSeconds(cpuTotal, kernel...), 0.0
	if packets > 0 {
		rate = float64(packets) / refTotal
	}
	chk.logf("%s: %d operations, %d failed; %d packets in %.3f CPU s, %.3f reference s",
		w.name, chk.attempted, chk.failed, packets, cpuTotal.Seconds(), refTotal)
	return map[string]metric{
		"sim_pkts_per_ref_s": {rate, "pkt/ref-s"},
		"setup_s":            {median(setups), "s"},
		"alloc_mb":           {median(allocs), "MB"},
	}
}

// spawnProbe returns a function that performs one set-up of the workload
// in a fresh copy of this executable and returns the CPU time the child
// was charged, from its start to its exit.
func spawnProbe(o options, stderr io.Writer) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		exe, err := os.Executable()
		if err != nil {
			return 0, err
		}
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
			"--small="+strconv.FormatBool(o.small))
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
	}
}

// setupProbe is the child side of spawnProbe: everything a run does
// before its first timed iteration, then exit.
func setupProbe(args []string, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench probe:", err)
		return 2
	}
	setGOMAXPROCS()
	if _, err := loadPins(); err != nil {
		fmt.Fprintln(stderr, "perfbench probe:", err)
		return 1
	}
	w, err := findWorkload(workloads(o.sizes()), o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench probe:", err)
		return 2
	}
	if _, _, err := w.op(warmupSeed(o.seed)); err != nil {
		fmt.Fprintln(stderr, "perfbench probe: warm-up:", err)
		return 1
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
