package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestJournalRecordAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, n, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh journal loaded %d entries", n)
	}
	type cell struct {
		A float64
		B string
	}
	if err := j.record("k1", "study", 0, cell{A: 0.1234567890123, B: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.record("k2", "study", 1, cell{A: 2, B: "y"}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j.Len())
	}

	j2, n, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("resumed %d entries, want 2", n)
	}
	var c cell
	if !j2.lookup("k1", &c) || c.A != 0.1234567890123 || c.B != "x" {
		t.Fatalf("k1 round-trip: %+v", c)
	}
	if j2.lookup("missing", &c) {
		t.Fatal("lookup of unknown key must miss")
	}

	// A shape change between versions is a miss, not a failure.
	var wrong struct{ A []string }
	if j2.lookup("k1", &wrong) {
		t.Fatal("incompatible entry shape must be treated as a miss")
	}
}

func TestJournalFreshOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record("k1", "s", 0, 1); err != nil {
		t.Fatal(err)
	}
	// Opening without resume discards the previous campaign on disk
	// immediately, so a kill before the first new cell cannot leave stale
	// entries behind.
	if _, n, err := OpenJournal(path, false); err != nil || n != 0 {
		t.Fatalf("fresh open: n=%d err=%v", n, err)
	}
	if _, n, err := OpenJournal(path, true); err != nil || n != 0 {
		t.Fatalf("journal not truncated on fresh open: n=%d err=%v", n, err)
	}
}

func TestJournalResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.jsonl")
	j, n, err := OpenJournal(path, true)
	if err != nil || n != 0 || j == nil {
		t.Fatalf("resume with no journal yet must start fresh: n=%d err=%v", n, err)
	}
}

func TestJournalRejectsMalformedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"key\":\"k\",\"result\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, true); err == nil || !strings.Contains(err.Error(), ":2") {
		t.Fatalf("malformed line must fail with its line number, got %v", err)
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	base := Options{Packets: 100, Trials: 2, Seed: 1}
	k := base.fingerprint("s", 0, "x")
	same := base.fingerprint("s", 0, "x")
	if k != same {
		t.Fatal("fingerprint must be deterministic")
	}
	variants := []string{
		func() string { o := base; o.Packets = 101; return o.fingerprint("s", 0, "x") }(),
		func() string { o := base; o.Trials = 3; return o.fingerprint("s", 0, "x") }(),
		func() string { o := base; o.Seed = 2; return o.fingerprint("s", 0, "x") }(),
		func() string { o := base; o.FaultScale = 25; return o.fingerprint("s", 0, "x") }(),
		base.fingerprint("other", 0, "x"),
		base.fingerprint("s", 1, "x"),
		base.fingerprint("s", 0, "y"),
	}
	seen := map[string]bool{k: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides with an earlier fingerprint", i)
		}
		seen[v] = true
	}
}

// decodeCell decodes a journaled cell result as T.
func decodeCell[T any](raw []byte) (any, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// TestOlderJournalCellsResume: journals written before DetectionCell,
// ReliabilityCell, StateCell and FleetCell lost the fields only the
// journal read still resume. testdata/old_cells.jsonl holds one line of
// each cell type as that version wrote it, from the study and scale named
// here. Each line decodes to every field it carries but the deleted ones,
// and a resumed study takes its cell from the line without recomputing it.
func TestOlderJournalCellsResume(t *testing.T) {
	src := filepath.Join("testdata", "old_cells.jsonl")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]journalEntry{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		lines[fmt.Sprintf("%s/%d", e.Study, e.Index)] = e
	}
	for _, tc := range []struct {
		study   string
		o       Options
		cell    string // the line's study and index
		decode  func([]byte) (any, error)
		deleted []string
	}{
		{"ecc", Options{Packets: 60, Trials: 2}, "detection-route/1", decodeCell[DetectionCell],
			[]string{"Fallibility"}},
		{"reliability", Options{Packets: 60, Trials: 2}, "reliability-route/5", decodeCell[ReliabilityCell],
			[]string{"Fall", "LinesDisabled", "BurstEpisodes", "PermanentHits"}},
		{"state", Options{Packets: 60, Trials: 2}, "state-flowtrack/8", decodeCell[StateCell],
			[]string{"App", "Scrubs", "Fatal"}},
		{"fleet", Options{Packets: 300, Trials: 1}, "fleet-route/5", decodeCell[FleetCell],
			[]string{"Reclocks"}},
	} {
		t.Run(tc.study, func(t *testing.T) {
			e, ok := lines[tc.cell]
			if !ok {
				t.Fatalf("%s holds no line for %s", src, tc.cell)
			}
			var want map[string]any
			if err := json.Unmarshal(e.Result, &want); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.deleted {
				if _, ok := want[f]; !ok {
					t.Fatalf("the line carries no %s", f)
				}
				delete(want, f)
			}
			cell, err := tc.decode(e.Result)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(cell)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the line decodes to %v, want %v", got, want)
			}

			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			j, _, err := OpenJournal(path, true)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			computed := map[string]bool{}
			o := tc.o
			o.Journal = j
			o.afterCell = func(study string, index int) {
				mu.Lock()
				defer mu.Unlock()
				computed[fmt.Sprintf("%s/%d", study, index)] = true
			}
			st, _ := LookupStudy(tc.study)
			if err := st.Run(o, "", "", io.Discard); err != nil {
				t.Fatal(err)
			}
			if computed[tc.cell] {
				t.Errorf("the study recomputed %s", tc.cell)
			}
			if len(computed) == 0 {
				t.Error("the study computed no cell: the scale does not reach it")
			}
		})
	}
}
