package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the end-to-end run spawns its set-up probes.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(setupProbe(os.Args[1:], os.Stderr))
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfTest runs every workload of BENCHMARK.json at reduced size, with
// tracing off and on, and checks that the last line of output carries
// exactly the declared metrics with their units and no failure.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--small"}
				if code := cli(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestWrongPinFails pins the digest of the first timed iteration, first
// right and then deliberately wrong, and checks that only the wrong pin
// is reported as a failed operation.
func TestWrongPinFails(t *testing.T) {
	ws := workloads(smallSizes)
	w, err := findWorkload(ws, "paper-long")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.name, seed: 9, seconds: 1e-9, small: true}
	seed, pooled := iterSeed(w.pool, o.seed, 0)
	if !pooled {
		t.Fatal("first iteration seed is not in the pinned pool")
	}
	_, digest, err := w.op(seed)
	if err != nil {
		t.Fatal(err)
	}
	probe := func() (time.Duration, error) { return time.Millisecond, nil }
	logf := func(string, ...any) {}

	for _, tc := range []struct {
		digest  string
		correct bool
	}{{digest, true}, {"0123456789abcdef", false}} {
		set := pinSet{Workload: w.name, Digests: make([]string, w.pool)}
		set.Digests[seed-1] = tc.digest
		res := bench(w, ws, o, pins{w.def.key(): set}, probe, logf)
		if res.Correct != tc.correct || (res.Failed == 0) != tc.correct {
			t.Errorf("pinned %s: correct=%v failed=%d of %d, want correct=%v", tc.digest, res.Correct, res.Failed, res.Attempted, tc.correct)
		}
	}
}

// TestIterSeedsDistinct checks the seed discipline: no two iterations of
// one process share a seed, inside the pool or beyond it.
func TestIterSeedsDistinct(t *testing.T) {
	for _, s := range []uint64{0, 1, 2, 77} {
		seen := map[uint64]bool{warmupSeed(s): true}
		for i := 0; i < 3*96; i++ {
			seed, _ := iterSeed(96, s, i)
			if seen[seed] {
				t.Fatalf("seed %d: iteration %d repeats seed %d", s, i, seed)
			}
			seen[seed] = true
		}
	}
}

// TestUnknownWorkloadFails checks that a bad invocation exits non-zero
// without a result line.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if code := cli([]string{"--workload", "nope"}, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
