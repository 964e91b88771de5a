package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clumsy/internal/packet"
)

func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestNoArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("missing experiment should error")
	}
	if !strings.Contains(buf.String(), "usage:") {
		t.Fatal("usage not printed")
	}
}

// TestUnknownCommand: a name that is neither a study nor a tool fails,
// bench included (perfbench/ is the repository's benchmark).
func TestUnknownCommand(t *testing.T) {
	for _, name := range []string{"figZZ", "bench"} {
		var buf bytes.Buffer
		if err := run([]string{name}, &buf); err == nil {
			t.Errorf("unknown command %q should error", name)
		}
	}
}

func TestList(t *testing.T) {
	out := capture(t, "list")
	for _, frag := range []string{"table1", "fig12", "run"} {
		if !strings.Contains(out, frag) {
			t.Errorf("list output missing %q", frag)
		}
	}
}

func TestCircuitFigures(t *testing.T) {
	cases := map[string]string{
		"fig1b": "voltage swing",
		"fig2b": "noise immunity",
		"fig3":  "switching combinations",
		"fig4":  "fault at various voltage levels",
		"fig5":  "different cycle times",
	}
	for cmd, frag := range cases {
		out := capture(t, cmd)
		if !strings.Contains(out, frag) {
			t.Errorf("%s output missing %q", cmd, frag)
		}
	}
}

func TestTable1Command(t *testing.T) {
	out := capture(t, "table1", "-packets", "150", "-trials", "1")
	for _, frag := range []string{"Table I", "md5", "Fallibility"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table1 output missing %q", frag)
		}
	}
}

func TestFig6And7Commands(t *testing.T) {
	out := capture(t, "fig6", "-packets", "100", "-trials", "1")
	if !strings.Contains(out, "route") || !strings.Contains(out, "control plane") {
		t.Error("fig6 should sweep route over planes")
	}
	out = capture(t, "fig7", "-packets", "100", "-trials", "1")
	if !strings.Contains(out, "nat") {
		t.Error("fig7 should study nat")
	}
}

func TestFig8Command(t *testing.T) {
	out := capture(t, "fig8", "-packets", "100", "-trials", "1")
	if !strings.Contains(out, "fatal error probabilities") || !strings.Contains(out, "avrg") {
		t.Error("fig8 output malformed")
	}
}

func TestFig9Command(t *testing.T) {
	out := capture(t, "fig9", "-packets", "100", "-trials", "1")
	if !strings.Contains(out, "Figure 9(a)") || !strings.Contains(out, "Figure 9(b)") {
		t.Error("fig9 should render two panels")
	}
	if !strings.Contains(out, "two strikes") {
		t.Error("fig9 missing recovery schemes")
	}
}

func TestRunCommand(t *testing.T) {
	out := capture(t, "run", "-app", "route", "-cr", "0.5", "-parity", "-strikes", "2", "-packets", "1000")
	for _, frag := range []string{"golden:", "clumsy:", "fallibility", "energy-delay^2-fallibility^2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("run output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunDynamic(t *testing.T) {
	out := capture(t, "run", "-app", "crc", "-dynamic", "-parity", "-strikes", "3", "-packets", "1000")
	if !strings.Contains(out, "dynamic:") {
		t.Errorf("dynamic run should report level usage:\n%s", out)
	}
}

func TestRunDropPolicy(t *testing.T) {
	// A tight watchdog budget makes the trace's heaviest packets trip the
	// watchdog; the drop policy must contain them and report the accounting.
	out := capture(t, "run", "-app", "route", "-cr", "0.25", "-recovery", "drop",
		"-watchdog", "0.7", "-seed", "1")
	if !strings.Contains(out, "containment:") {
		t.Fatalf("drop-policy run missing containment line:\n%s", out)
	}
	if strings.Contains(out, "containment: 0 dropped") {
		t.Fatalf("tight watchdog under drop should drop packets:\n%s", out)
	}
	if strings.Contains(out, "fatal true") {
		t.Fatalf("contained run must not be fatal:\n%s", out)
	}
}

func TestRunAbortPolicyHidesContainment(t *testing.T) {
	out := capture(t, "run", "-app", "route", "-cr", "0.5", "-packets", "1000")
	if strings.Contains(out, "containment:") {
		t.Fatalf("abort-policy run must not print containment accounting:\n%s", out)
	}
}

func TestRunBadRecoveryPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "-recovery", "bogus"}, &buf); err == nil {
		t.Fatal("unknown recovery policy should error")
	}
}

func TestRunUnknownApp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "-app", "bogus"}, &buf); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestTraceCommand(t *testing.T) {
	out := capture(t, "trace", "-app", "url", "-packets", "25", "-seed", "3")
	if !strings.Contains(out, "url workload") || !strings.Contains(out, "GET /") {
		t.Fatalf("trace output malformed:\n%s", out)
	}
}

func TestTraceCommandBinaryOut(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.bin"
	out := capture(t, "trace", "-app", "route", "-packets", "30", "-out", path)
	if !strings.Contains(out, "wrote 30 packets") {
		t.Fatalf("unexpected output: %s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := packet.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 30 {
		t.Fatalf("read back %d packets", len(tr.Packets))
	}
}

func TestCSVFormat(t *testing.T) {
	out := capture(t, "fig1b", "-format", "csv")
	if !strings.HasPrefix(out, "series,Cr,Vsr") {
		t.Fatalf("csv header missing:\n%s", out[:40])
	}
	out = capture(t, "table1", "-packets", "120", "-trials", "1", "-format", "csv")
	if !strings.HasPrefix(out, "App,") {
		t.Fatalf("table csv header missing:\n%s", out[:40])
	}
}

func TestExtensionCommands(t *testing.T) {
	for cmd, frag := range map[string]string{
		"ecc":       "detection schemes",
		"subblock":  "sub-block recovery",
		"exponents": "metric-weighting",
		"dvs":       "DVS vs clumsy",
	} {
		out := capture(t, cmd, "-app", "route", "-packets", "120", "-trials", "1")
		if !strings.Contains(out, frag) {
			t.Errorf("%s output missing %q", cmd, frag)
		}
	}
}

func TestRunWithTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.bin"
	capture(t, "trace", "-app", "route", "-packets", "200", "-out", path)
	out := capture(t, "run", "-app", "route", "-cr", "0.5", "-parity", "-strikes", "2", "-trace", path)
	if !strings.Contains(out, "packets: 200/200 processed") {
		t.Fatalf("replayed run malformed:\n%s", out)
	}
}

func TestRunWithMissingTraceFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"run", "-trace", "/no/such/file"}, &buf); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestMediaCommand(t *testing.T) {
	out := capture(t, "media", "-packets", "120", "-trials", "1")
	if !strings.Contains(out, "adpcm") || !strings.Contains(out, "media processor") {
		t.Fatalf("media output malformed:\n%s", out)
	}
}

// readEvents parses a JSONL trace file and returns the events by type.
func readEvents(t *testing.T, path string) map[string][]map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byType := map[string][]map[string]any{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line: %v\n%s", err, sc.Text())
		}
		typ, _ := ev["type"].(string)
		if typ == "" {
			t.Fatalf("event without type: %s", sc.Text())
		}
		if _, ok := ev["cycle"].(float64); !ok {
			t.Fatalf("event without numeric cycle timestamp: %s", sc.Text())
		}
		byType[typ] = append(byType[typ], ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return byType
}

// TestTraceOutJSONL is the acceptance check of the telemetry subsystem:
// a traced dynamic run must produce valid JSONL holding fault-injection,
// recovery, and frequency-transition events with cycle timestamps.
func TestTraceOutJSONL(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	capture(t, "run", "-app", "route", "-packets", "1000", "-dynamic", "-parity",
		"-strikes", "2", "-scale", "25", "-seed", "3", "-trace-out", path)
	byType := readEvents(t, path)
	for _, typ := range []string{"run_start", "fault_injection", "recovery", "freq_transition", "run_end"} {
		if len(byType[typ]) == 0 {
			t.Errorf("trace holds no %s events", typ)
		}
	}
	// Cycle timestamps must be monotonic non-decreasing within the run.
	prev := -1.0
	for _, evs := range []string{"fault_injection", "recovery"} {
		prev = -1
		for _, ev := range byType[evs] {
			c := ev["cycle"].(float64)
			if c < prev {
				t.Fatalf("%s cycles not monotonic: %g after %g", evs, c, prev)
			}
			prev = c
		}
	}
}

// TestStatsMatchesTrace runs the stats command with a trace sink attached
// in the same process and checks that the counter registry agrees with
// the counts derivable from the JSONL trace.
func TestStatsMatchesTrace(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	out := capture(t, "stats", "-app", "route", "-packets", "800", "-cr", "0.5",
		"-parity", "-strikes", "2", "-scale", "25", "-seed", "7",
		"-trace-out", path, "-format", "json")
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("stats -format json is not JSON: %v\n%s", err, out)
	}
	byType := readEvents(t, path)
	c := snap.Counters
	if got, want := c["fault.read_injected"]+c["fault.write_injected"], uint64(len(byType["fault_injection"])); got != want {
		t.Errorf("fault counters %d != %d fault_injection events", got, want)
	}
	retries, recoveries := 0, 0
	for _, ev := range byType["recovery"] {
		if ev["kind"] == "retry" {
			retries++
		} else {
			recoveries++
		}
	}
	if got := c["recovery.retries"]; got != uint64(retries) {
		t.Errorf("recovery.retries %d != %d retry events", got, retries)
	}
	if got := c["recovery.recoveries"]; got != uint64(recoveries) {
		t.Errorf("recovery.recoveries %d != %d recovery events", got, recoveries)
	}
	if got := c["run.count"]; got != 1 {
		t.Errorf("run.count = %d, want 1", got)
	}
	if len(byType["fault_injection"]) == 0 {
		t.Error("expected at least one injected fault at scale 25")
	}
}

// TestStatsPrometheus checks the default stats format is Prometheus text.
func TestStatsPrometheus(t *testing.T) {
	out := capture(t, "stats", "-app", "crc", "-packets", "300", "-scale", "5", "-seed", "2")
	for _, frag := range []string{
		"# TYPE clumsy_cache_l1d_reads counter",
		"# TYPE clumsy_packet_instructions histogram",
		"clumsy_run_count 1",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("prometheus stats missing %q:\n%s", frag, out[:min(len(out), 400)])
		}
	}
}

// TestExperimentGridTraced checks that experiment subcommands are traced
// through the default-telemetry hub without any per-command wiring: a
// small table1 grid must leave run_start/run_end events from many runs.
func TestExperimentGridTraced(t *testing.T) {
	path := t.TempDir() + "/grid.jsonl"
	capture(t, "table1", "-packets", "120", "-trials", "1", "-trace-out", path)
	byType := readEvents(t, path)
	if len(byType["run_start"]) < 7 { // one faulty run per application at least
		t.Fatalf("grid trace holds %d run_start events, want >= 7", len(byType["run_start"]))
	}
	if len(byType["run_end"]) != len(byType["run_start"]) {
		t.Fatalf("run_start/run_end mismatch: %d vs %d", len(byType["run_start"]), len(byType["run_end"]))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestVerifyCommand(t *testing.T) {
	// At a moderate deterministic scale every claim passes and the
	// command exits cleanly.
	out := capture(t, "verify", "-packets", "1200", "-trials", "2")
	if !strings.Contains(out, "PASS") {
		t.Fatalf("verify output malformed:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("verify reported failures:\n%s", out)
	}
}

// TestJournalResumeRoundTrip drives the resilient-campaign flags through the
// CLI: a journaled run, then a -resume rerun that produces identical output
// from the recorded cells alone.
func TestJournalResumeRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	first := capture(t, "table1", "-packets", "150", "-trials", "1", "-journal", journal)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines == 0 {
		t.Fatal("journal holds no cells")
	}
	second := capture(t, "table1", "-packets", "150", "-trials", "1", "-journal", journal, "-resume")
	if first != second {
		t.Fatalf("resumed output differs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"table1", "-resume"}, &buf); err == nil {
		t.Fatal("-resume without -journal should error")
	}
}

// TestOutFlagAtomicWrite: -out writes the full rendering to the file (no
// partial file on failure paths is covered by the atomicio tests).
func TestOutFlagAtomicWrite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "table1.csv")
	if msg := capture(t, "table1", "-packets", "150", "-trials", "1", "-format", "csv", "-out", out); msg != "" {
		t.Fatalf("with -out, stdout should be quiet, got %q", msg)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "App,") {
		t.Fatalf("-out file missing CSV header: %q", string(data[:min(len(data), 120)]))
	}
}

// TestRunTimeoutFlag: an absurdly generous deadline must not perturb a
// normal run, proving the watchdog path composes with real cells.
func TestRunTimeoutFlag(t *testing.T) {
	plain := capture(t, "fig8", "-packets", "150", "-trials", "1")
	guarded := capture(t, "fig8", "-packets", "150", "-trials", "1", "-run-timeout", "5m")
	if plain != guarded {
		t.Fatal("the deadline flag changed the result of a healthy campaign")
	}
}

// TestRejectsMisuse: every command defines only the flags it reads, and
// input a command cannot honour fails before anything runs or is opened,
// with a message that names the flag.
func TestRejectsMisuse(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	for _, tc := range []struct {
		args []string
		name string // the error must name it
	}{
		{[]string{"run", "-journal", journal, "-nodes", "3", "-compare", "-format", "csv"}, "-journal"},
		{[]string{"run", "-nodes", "3"}, "-nodes"},
		{[]string{"run", "-compare"}, "-compare"},
		{[]string{"run", "-threshold", "2"}, "-threshold"},
		{[]string{"run", "-format", "csv"}, "-format"},
		{[]string{"fig7", "-journal", journal, "-format", "json"}, "format"},
		{[]string{"table1", "-format", "json"}, "format"},
		{[]string{"fig1b", "-format", "xml"}, "format"},
		{[]string{"all", "-format", "json"}, "format"},
		{[]string{"stats", "-format", "csv"}, "format"},
		{[]string{"stats", "-describe", "-app", "fw", "-scale", "25", "-parity", "-strikes", "2", "-packets", "5000"}, "-app"},
		{[]string{"stats", "-describe", "-format", "json"}, "-format"},
		{[]string{"stats", "-parity", "-describe"}, "-parity"},
		{[]string{"stats", "-describe", "-trace-out", journal}, "-trace-out"},
		{[]string{"fleet", "-faulty", "1", "-format", "csv"}, "format"},
		{[]string{"fleet", "-nodes", "2"}, "-nodes"},
		{[]string{"fleet", "-dispatch", "flow"}, "-dispatch"},
		{[]string{"fleet", "-cr", "0.25"}, "-cr"},
		{[]string{"fleet", "-dynamic"}, "-dynamic"},
		{[]string{"fleet", "-recovery", "drop"}, "-recovery"},
		{[]string{"fleet", "-max-drop-rate", "0.1"}, "-max-drop-rate"},
		{[]string{"fleet", "-shape", "diurnal"}, "-shape"},
		{[]string{"fleet", "-shape2", "onoff"}, "-shape2"},
		{[]string{"fleet", "-periods2", "2"}, "-periods2"},
		{[]string{"fleet", "-adversarial", "0.1"}, "-adversarial"},
		{[]string{"fleet", "-churn", "0.1"}, "-churn"},
		{[]string{"fleet", "-faulty", "1", "-scrub", "4"}, "-scrub"},
		{[]string{"fleet", "-faulty", "1", "-state-strikes", "2"}, "-state-strikes"},
		{[]string{"fleet", "-faulty", "1", "-trials", "2"}, "-trials"},
		{[]string{"fleet", "-faulty", "1", "-journal", journal}, "-journal"},
		{[]string{"fleet", "-faulty", "1", "-nodes", "2", "-packets", "400", "-seed", "5", "-recovery", "abort"}, "-recovery abort"},
		{[]string{"reliability", "-recovery", "drop"}, "-recovery"},
		{[]string{"state", "-recovery", "drop"}, "-recovery"},
		{[]string{"fig9", "-app", "route"}, "-app"},
		{[]string{"media", "-app", "route"}, "-app"},
		{[]string{"errors"}, "app"},
		{[]string{"table1", "extra"}, "extra"},
		{[]string{"tuning", "-scale", "-1"}, "scale"},
		{[]string{"table1", "-packets", "-5", "-trials", "-2"}, "packets"},
		{[]string{"table1", "-trials", "-2"}, "trials"},
		{[]string{"ecc", "-journal", journal, "-max-drop-rate", "-3"}, "max-drop-rate"},
		{[]string{"fleet", "-faulty", "1", "-packets", "-5"}, "packets"},
		{[]string{"table1", "-retries", "1"}, "-retries"},
		{[]string{"table1", "-journal", journal, "-run-timeout", "-5s"}, "run-timeout"},
		{[]string{"fleet", "-run-timeout", "-1ms"}, "run-timeout"},
		{[]string{"run", "-parity", "-strikes", "4"}, "Strikes"},
		{[]string{"run", "-parity", "-strikes", "4", "-packets", "200000"}, "Strikes"},
		{[]string{"run", "-cr", "-0.5"}, "CycleTime"},
		{[]string{"run", "-cr", "2"}, "CycleTime"},
		{[]string{"run", "-watchdog", "-1"}, "WatchdogFactor"},
		{[]string{"run", "-max-drop-rate", "-1"}, "MaxDropRate"},
		{[]string{"run", "-app", "fw", "-state-strikes", "-1"}, "StateStrikes"},
		{[]string{"run", "-app", "fw", "-adversarial", "1.7"}, "adversarial must be"},
		{[]string{"run", "-app", "fw", "-churn", "-0.4"}, "churn must be"},
		{[]string{"run", "-app", "fw", "-adversarial", "0.6", "-churn", "0.6"}, "churn must not exceed"},
		{[]string{"run", "-shape", "diurnal", "-shape2", "onoff", "-periods2", "-3"}, "periods2"},
		{[]string{"stats", "-adversarial", "-0.1"}, "adversarial must be"},
		{[]string{"run", "-app", "fw", "-seed", "3", "-shape", "flash"}, "-shape "},
		{[]string{"stats", "-shape", "diurnal", "-shape2", "onoff", "-periods2", "3"}, "-shape "},
		{[]string{"run", "-shape2", "onoff"}, "-shape2"},
		{[]string{"run", "-app", "fw", "-adversarial", "0.1", "-shape", "diurnal", "-periods2", "5"}, "-periods2"},
		{[]string{"stats", "-churn", "0.1", "-periods2", "2"}, "-periods2"},
		{[]string{"fleet", "-faulty", "1", "-shape", "flash", "-periods2", "2"}, "-periods2"},
		{[]string{"fleet", "-faulty", "20", "-nodes", "4"}, "faulty must not exceed nodes (4)"},
		{[]string{"fleet", "-faulty", "9"}, "faulty must not exceed nodes (8)"},
		{[]string{"fleet", "-faulty", "1", "-churn", "1.5"}, "churn must be"},
		{[]string{"run", "-packets", "-5"}, "packets"},
		{[]string{"run", "-scale", "-3"}, "scale"},
		{[]string{"stats", "-packets", "-5"}, "packets"},
		{[]string{"stats", "-scale", "-3"}, "scale"},
		{[]string{"trace", "-packets", "-5"}, "packets"},
		{[]string{"fleet", "-faulty", "1", "-nodes", "-3"}, "nodes"},
		{[]string{"fleet", "-faulty", "1", "-cr", "-1"}, "cr"},
		{[]string{"fleet", "-faulty", "1", "-packets", "200", "-cr", "3"}, "CycleTime"},
		{[]string{"fleet", "-faulty", "1", "-cr", "3", "-packets", "100000"}, "CycleTime"},
		{[]string{"run", "-app", "route", "-packets", "1000", "-cr", "0"}, "-cr 0"},
		{[]string{"run", "-parity", "-strikes", "0"}, "-strikes 0"},
		{[]string{"run", "-strikes", "3"}, "-strikes"},
		{[]string{"stats", "-strikes", "1"}, "-strikes"},
		{[]string{"run", "-dynamic", "-cr", "0.5"}, "-cr"},
		{[]string{"stats", "-dynamic", "-parity", "-cr", "1"}, "-cr"},
		{[]string{"run", "-max-drop-rate", "0.5"}, "-max-drop-rate"},
		{[]string{"stats", "-recovery", "abort", "-max-drop-rate", "0.1"}, "-max-drop-rate"},
		{[]string{"fig5", "-packets", "50"}, "-packets"},
		{[]string{"fig5", "-scale", "3"}, "-scale"},
		{[]string{"fig1b", "-seed", "4"}, "-seed"},
		{[]string{"fig4", "-journal", journal}, "-journal"},
		{[]string{"fig3", "-max-drop-rate", "0.2"}, "-max-drop-rate"},
		{[]string{"table1", "-packets", "60", "-trials", "1", "-max-drop-rate", "0.3"}, "max-drop-rate"},
		{[]string{"all", "-recovery", "abort", "-max-drop-rate", "0.3"}, "max-drop-rate"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.name)
		}
		// A simulator error reaches the command as the simulator returned
		// it, under its own prefix, and main prints that prefix once.
		if strings.Count(err.Error(), "clumsy:") > 1 || strings.Index(err.Error(), "clumsy:") > 0 {
			t.Errorf("%v: error %q wraps a simulator error", tc.args, err)
		}
		if msg := exitMessage(err); strings.HasPrefix(msg, "clumsy: clumsy:") {
			t.Errorf("%v: prints %q", tc.args, msg)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("a rejected command opened its journal (stat err %v)", err)
	}
}

// TestShapeFlagsAccepted: a single run takes a shape that scales
// adversarial or churn traffic, and a fleet run takes one alone, where it
// paces the arrivals. The other checks that reject ignored flags keep
// what a command reads: stats -describe takes -out, and fleet -faulty the
// policies its nodes run.
func TestShapeFlagsAccepted(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-shape", "flash", "-churn", "0.1"},
		{"stats", "-shape", "diurnal", "-shape2", "onoff", "-periods2", "3", "-adversarial", "0.05"},
		{"fleet", "-faulty", "1", "-shape", "flash"},
		{"fleet", "-faulty", "1", "-shape", "diurnal", "-shape2", "onoff", "-periods2", "3"},
		{"stats", "-describe", "-out", "names.txt"},
		{"stats", "-describe=false", "-app", "fw"},
		{"fleet", "-faulty", "1", "-recovery", "drop"},
		{"fleet", "-faulty", "1", "-recovery", "degrade"},
	} {
		c, _ := newCommand(args[0], &cliOpts{})
		if err := c.fs.Parse(args[1:]); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := c.check(); err != nil {
			t.Errorf("%v: rejected: %v", args, err)
		}
	}
}

// TestAppOverridesFigureDefault: -app replaces the app a figure studies by
// default and the figure keeps its title.
func TestAppOverridesFigureDefault(t *testing.T) {
	got := capture(t, "fig7", "-app", "route", "-packets", "100", "-trials", "1")
	want := strings.ReplaceAll(capture(t, "fig6", "-packets", "100", "-trials", "1"), "Figure 6", "Figure 7")
	if got != want {
		t.Fatalf("fig7 -app route is not route under the Figure 7 title:\n%s", got)
	}
}

// TestAllCSV: all honours -format csv like every other study.
func TestAllCSV(t *testing.T) {
	out := capture(t, "all", "-packets", "100", "-trials", "1", "-format", "csv")
	if !strings.HasPrefix(out, "series,Cr,Vsr\n") || !strings.Contains(out, "\nApp,") {
		t.Fatalf("all -format csv is not CSV:\n%.300s", out)
	}
	if strings.Contains(out, "====") {
		t.Fatal("all -format csv rendered a text table")
	}
}

// TestCommandFlagSets: each command's -h lists only the flags it reads.
func TestCommandFlagSets(t *testing.T) {
	for _, tc := range []struct {
		cmd     string
		defined []string
		absent  []string
	}{
		{"run", []string{"app", "recovery", "scrub", "shape"}, []string{"compare", "nodes", "threshold", "journal", "trials", "format"}},
		{"fleet", []string{"faulty", "nodes", "journal", "recovery"}, []string{"scrub", "state-strikes"}},
		{"reliability", []string{"app", "journal"}, []string{"recovery"}},
		{"state", []string{"journal"}, []string{"recovery", "app"}},
		{"fig9", []string{"recovery"}, []string{"app"}},
		{"trace", []string{"app", "out"}, []string{"trace-out", "recovery"}},
		{"fig5", []string{"format", "out", "cpuprofile", "memprofile"}, []string{"packets", "trials", "scale", "seed",
			"max-drop-rate", "journal", "resume", "run-timeout", "trace-out", "progress", "app", "recovery"}},
	} {
		c, ok := newCommand(tc.cmd, &cliOpts{})
		if !ok {
			t.Fatalf("no command %q", tc.cmd)
		}
		for _, name := range tc.defined {
			if c.fs.Lookup(name) == nil {
				t.Errorf("%s: -%s not defined", tc.cmd, name)
			}
		}
		for _, name := range tc.absent {
			if c.fs.Lookup(name) != nil {
				t.Errorf("%s: defines -%s, which it does not read", tc.cmd, name)
			}
		}
	}
	c, _ := newCommand("fig7", &cliOpts{})
	if got := c.fs.Lookup("app").DefValue; got != "nat" {
		t.Errorf("fig7 -app defaults to %q, want nat", got)
	}
	if err := run([]string{"run", "-h"}, io.Discard); err != nil {
		t.Errorf("run -h: %v", err)
	}
}
