// Package clumsy_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation, and the extension studies, through
// the study registry of internal/experiment: BenchmarkStudy/<name> times
// one study. With -bench-render each benchmark prints the reproduced output
// once (`go test -bench . -args -bench-render` captures it) in addition to
// timing it; by default the output stays clean for benchmark tooling such
// as benchstat.
//
// The benchmarks run at a reduced scale (fewer packets and trials than the
// CLI defaults) to keep the suite fast; `cmd/clumsy <experiment>` with
// default options is the canonical way to regenerate publication-scale
// numbers, and EXPERIMENTS.md records a full run. The repository benchmark
// in perfbench/ (BENCHMARK.json) is the measure of host cost, end to end
// and layer by layer; this harness only times studies.
package clumsy_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"clumsy/internal/experiment"
)

// renderOutput opts into printing each experiment's reproduced tables once.
var renderOutput = flag.Bool("bench-render", false,
	"print each experiment's reproduced tables/figures once during benchmarks")

// BenchmarkStudy runs every study of the registry at a reduced, fixed-seed
// scale; the circuit figures take no scale. It skips the composites (all,
// extensions), whose parts run on their own, and the studies that need an
// app named.
func BenchmarkStudy(b *testing.B) {
	for _, st := range experiment.Studies() {
		if st.NeedsApp || st.Name == "all" || st.Name == "extensions" {
			continue
		}
		o := experiment.Options{Packets: 1000, Trials: 2, Seed: 1}
		if st.Circuit {
			o = experiment.Options{}
		}
		printed := !*renderOutput
		b.Run(st.Name, func(b *testing.B) {
			for b.Loop() {
				w := io.Discard
				if !printed {
					w, printed = os.Stdout, true
					defer fmt.Println() // a blank line before the next study's output
				}
				if err := st.Run(o, "", "text", w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
