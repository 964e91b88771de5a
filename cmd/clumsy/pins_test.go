package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"clumsy/internal/experiment"
)

// studyPinsFile holds the pinned digests of the CLI's command outputs, the
// oracle for refactors of study dispatch and flag parsing. To re-pin after
// a deliberate change of output, delete the file and run the test once: it
// records the current digests and fails so the new file gets reviewed.
const studyPinsFile = "testdata/study_pins.json"

// pinnedStudies are the study commands pinned at small scale.
var pinnedStudies = []string{
	"fig1b", "fig2b", "fig3", "fig4", "fig5",
	"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"all", "verify",
	"ecc", "subblock", "exponents", "dvs", "geometry", "tuning", "media", "extensions",
	"reliability", "fleet", "state",
}

// studyPinCases lists every pinned invocation by name. The circuit
// figures take no scale flags.
func studyPinCases() map[string][]string {
	cases := map[string][]string{}
	for _, name := range pinnedStudies {
		cases[name] = []string{name}
		if st, _ := experiment.LookupStudy(name); !st.Circuit {
			cases[name] = append(cases[name], "-packets", "120", "-trials", "1")
		}
	}
	for _, name := range []string{"table1", "fig5", "extensions"} {
		cases[name+"/csv"] = append(slices.Clone(cases[name]), "-format", "csv")
	}
	// Two trials pin how a study averages its trials; fleet needs more
	// packets per node before its nodes degrade.
	for _, name := range []string{"all", "extensions", "reliability", "state"} {
		cases[name+"/trials2"] = []string{name, "-packets", "60", "-trials", "2"}
	}
	cases["fleet/trials2"] = []string{"fleet", "-packets", "300", "-trials", "2"}
	cases["run/drop-burst-parity"] = []string{"run", "-app", "route", "-recovery", "drop", "-regime", "burst",
		"-parity", "-strikes", "2", "-scale", "25", "-seed", "7"}
	cases["run/dynamic"] = []string{"run", "-app", "crc", "-dynamic", "-parity", "-strikes", "3", "-scale", "25", "-seed", "3"}
	cases["run/shape"] = []string{"run", "-app", "fw", "-shape", "diurnal", "-shape2", "onoff",
		"-adversarial", "0.05", "-churn", "0.1", "-scale", "25", "-seed", "4"}
	cases["stats/json"] = []string{"stats", "-app", "route", "-cr", "0.5", "-parity", "-strikes", "2",
		"-scale", "25", "-seed", "7", "-format", "json"}
	cases["trace"] = []string{"trace", "-app", "url", "-packets", "25", "-seed", "3"}
	fleet := []string{"fleet", "-faulty", "1", "-nodes", "4", "-packets", "800", "-seed", "5"}
	cases["fleet-faulty/text"] = fleet
	cases["fleet-faulty/json"] = append(append([]string(nil), fleet...), "-format", "json")
	return cases
}

// TestStudyOutputPins digests the output and error text of every study
// command at small scale, the CSV rendering of a table, a figure and a
// composite, and the single-run commands (run, stats, trace, fleet
// -faulty). A refactor of dispatch or flag parsing must leave every digest
// unchanged.
func TestStudyOutputPins(t *testing.T) {
	cases := studyPinCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string, len(cases))
	for _, name := range names {
		var buf bytes.Buffer
		err := run(cases[name], &buf)
		if err != nil {
			buf.WriteString("\nerror: " + err.Error())
		}
		sum := sha256.Sum256(buf.Bytes())
		got[name] = hex.EncodeToString(sum[:])
	}
	path := filepath.FromSlash(studyPinsFile)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d new pins in %s; review and commit them", len(got), path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned case no longer runs", name)
		}
	}
	for _, name := range names {
		switch {
		case want[name] == "":
			t.Errorf("%s: no pinned digest (delete %s to re-pin)", name, path)
		case got[name] != want[name]:
			t.Errorf("%s (%s): digest %s, pinned %s", name, strings.Join(cases[name], " "), got[name], want[name])
		}
	}
}
