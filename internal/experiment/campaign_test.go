package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clumsy/internal/clumsy"
	"clumsy/internal/telemetry"
)

// TestCampaignResumeByteIdentical is the tentpole's acceptance test: a
// campaign cancelled mid-grid and resumed from its journal must render
// byte-identical output to an uninterrupted run, and must skip (not
// recompute) every journaled cell.
func TestCampaignResumeByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	o := Options{Packets: 200, Trials: 1}

	// Reference: the uninterrupted campaign.
	ref, err := EDFGrid("crc", o)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := EDFRender(ref, "test", o).RenderCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel the campaign context once five cells have been
	// journaled. In-flight cells drain; the rest of the grid never runs.
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oi := o
	oi.Ctx = ctx
	oi.Journal = j
	var computed atomic.Int32
	oi.afterCell = func(string, int) {
		if computed.Add(1) == 5 {
			cancel()
		}
	}
	if _, err := EDFGrid("crc", oi); err == nil {
		t.Fatal("cancelled campaign must report an error")
	}

	jr, loaded, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	total := len(Schemes()) * len(Settings())
	if loaded < 5 || loaded >= total {
		t.Fatalf("journal holds %d of %d cells; want a partial campaign", loaded, total)
	}

	// Resumed: only the missing cells are computed, and the rendered CSV is
	// byte-identical to the uninterrupted reference.
	or := o
	or.Journal = jr
	var recomputed atomic.Int32
	or.afterCell = func(string, int) { recomputed.Add(1) }
	res, err := EDFGrid("crc", or)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(recomputed.Load()), total-loaded; got != want {
		t.Fatalf("resume recomputed %d cells, want %d (journal held %d)", got, want, loaded)
	}
	var gotCSV bytes.Buffer
	if err := EDFRender(res, "test", o).RenderCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("resumed campaign rendered differently:\n--- uninterrupted ---\n%s--- resumed ---\n%s",
			refCSV.String(), gotCSV.String())
	}
}

// journalPinsFile holds the digest of every study's journal written by
// TestEveryStudyResumesFromItsJournal. A digest covers each cell's key,
// study, index and encoded result, so a change that moves any of them,
// and with it the journals written before the change, fails here. To
// re-pin after a deliberate change, delete the file and run the test
// once: it records the current digests and fails so the new file gets
// reviewed.
const journalPinsFile = "testdata/journal_pins.json"

// journalDigest hashes a journal's lines in key order. Every line opens
// with its key, so sorting the lines sorts the entries by key and the
// digest does not depend on the order in which the workers finished.
func journalDigest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// readJournalPins returns the pinned journal digests, or nil when
// journalPinsFile does not exist yet.
func readJournalPins(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.FromSlash(journalPinsFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]string
	if err := json.Unmarshal(b, &pins); err != nil {
		t.Fatal(err)
	}
	return pins
}

// writeJournalPins records the digests in journalPinsFile and fails the
// test so the new file gets reviewed.
func writeJournalPins(t *testing.T, pins map[string]string) {
	t.Helper()
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.FromSlash(journalPinsFile), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("recorded %d new journal pins in %s; review and commit them", len(pins), journalPinsFile)
}

// TestEveryStudyResumesFromItsJournal: every registry study that simulates
// journals its cells, and a resume from that journal renders the same
// bytes and error while computing no cell and starting no clumsy.Run. The
// journal itself matches its pin in journalPinsFile. The circuit figures
// simulate nothing; the composites all and extensions are covered through
// their parts.
func TestEveryStudyResumesFromItsJournal(t *testing.T) {
	o := Options{Packets: 120, Trials: 1} // the CLI output pins' scale
	pins := readJournalPins(t)
	digests := map[string]string{}
	for _, st := range Studies() {
		if st.Circuit || st.Name == "all" || st.Name == "extensions" {
			continue
		}
		t.Run(st.Name, func(t *testing.T) {
			app := ""
			if st.NeedsApp {
				app = "route"
			}
			path := filepath.Join(t.TempDir(), "j.jsonl")
			var computed atomic.Int32
			render := func(resume bool) (string, int, error) {
				t.Helper()
				j, loaded, err := OpenJournal(path, resume)
				if err != nil {
					t.Fatal(err)
				}
				oj := o
				oj.Journal = j
				oj.afterCell = func(string, int) { computed.Add(1) }
				var buf bytes.Buffer
				err = st.Run(oj, app, "", &buf)
				return buf.String(), loaded, err
			}
			want, _, wantErr := render(false)
			digests[st.Name] = journalDigest(t, path)
			if pins != nil && digests[st.Name] != pins[st.Name] {
				t.Errorf("journal digest %s, pinned %q (delete %s to re-pin)", digests[st.Name], pins[st.Name], journalPinsFile)
			}
			computed.Store(0)
			tel := telemetry.New()
			clumsy.SetDefaultTelemetry(tel)
			defer clumsy.SetDefaultTelemetry(nil)
			got, loaded, gotErr := render(true)
			if loaded == 0 {
				t.Fatal("a journaled run left an empty journal")
			}
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("resume rendered differently:\n--- journaled (%v) ---\n%s--- resumed (%v) ---\n%s", wantErr, want, gotErr, got)
			}
			if n := computed.Load(); n != 0 {
				t.Errorf("resume computed %d cells", n)
			}
			if n := tel.Registry.Counter(telemetry.CtrRunCount).Load(); n != 0 {
				t.Errorf("resume started %d simulations", n)
			}
		})
	}
	if pins == nil {
		writeJournalPins(t, digests)
	}
	for name := range pins {
		if _, ok := LookupStudy(name); !ok {
			t.Errorf("%s: pinned journal of a study that no longer exists", name)
		}
	}
}

// TestFig12SimulatesEachGridOnce: fig12's url panel comes from the AllEDF
// pass its average panel makes, so one trial simulates each of the
// 7 apps x 4 schemes x 5 settings = 140 grid configurations once.
func TestFig12SimulatesEachGridOnce(t *testing.T) {
	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)
	st, _ := LookupStudy("fig12")
	if err := st.Run(Options{Packets: 40, Trials: 1}, "", "", io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := tel.Registry.Counter(telemetry.CtrRunCount).Load(); got != 140 {
		t.Fatalf("fig12 started %d faulty runs, want 140", got)
	}
}

// TestRunCellCancelledNotRetried: a cancelled cell fails once with the
// context error in its chain.
func TestRunCellCancelledNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Ctx: ctx}
	var attempts int
	var out int
	err := runCell(o, "cancelled", 0, nil, &out, func() (int, error) {
		attempts++
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want context.Canceled after 1 attempt", err, attempts)
	}
}

// TestRunCellDeadline: a wedged cell is killed by the wall-clock watchdog
// with a diagnostic naming the study and cell.
func TestRunCellDeadline(t *testing.T) {
	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)

	release := make(chan struct{})
	defer close(release)
	o := Options{RunTimeout: 20 * time.Millisecond}
	var out int
	err := runCell(o, "wedge", 3, nil, &out, func() (int, error) {
		<-release // wedged until test cleanup
		return 1, nil
	})
	var te *CellTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want CellTimeoutError", err)
	}
	if te.Study != "wedge" || te.Index != 3 {
		t.Fatalf("diagnostic names %s[%d], want wedge[3]", te.Study, te.Index)
	}
	if got := tel.Registry.Counter(telemetry.CtrCampaignCellsTimedOut).Load(); got != 1 {
		t.Fatalf("campaign.cells_timed_out = %d, want 1", got)
	}
}

// TestRunCellPanicTerminal: a panic inside a cell surfaces as an error
// carrying the cell identity and the panic value instead of crashing,
// with the deadline watchdog on or off.
func TestRunCellPanicTerminal(t *testing.T) {
	for _, timeout := range []time.Duration{time.Second, 0} {
		o := Options{RunTimeout: timeout}
		var out int
		err := runCell(o, "buggy", 7, nil, &out, func() (int, error) {
			panic("index out of range")
		})
		if !errors.Is(err, errCellPanic) {
			t.Fatalf("RunTimeout %v: err = %v, want errCellPanic chain", timeout, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "buggy cell 7") || !strings.Contains(msg, "index out of range") {
			t.Fatalf("RunTimeout %v: error %q does not name the cell and the panic", timeout, msg)
		}
	}
}

// TestGridPanicRecovery: a panic inside one grid cell surfaces as an
// error naming the cell's index and the panic value, not a crash, with
// four workers or one.
func TestGridPanicRecovery(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	key := func(int) any { return nil }
	_, err := grid(Options{}, "buggy", 50, key, func(i int) (int, error) {
		if i == 23 {
			panic("index out of range [12] with length 4")
		}
		return i, nil
	})
	if !errors.Is(err, errCellPanic) ||
		!strings.Contains(err.Error(), "buggy cell 23") ||
		!strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("panic error must carry the cell index and the panic value: %v", err)
	}

	runtime.GOMAXPROCS(1)
	_, err = grid(Options{}, "serial", 3, key, func(i int) (int, error) {
		if i == 1 {
			panic("serial boom")
		}
		return i, nil
	})
	if !errors.Is(err, errCellPanic) ||
		!strings.Contains(err.Error(), "serial cell 1") ||
		!strings.Contains(err.Error(), "serial boom") {
		t.Fatalf("one worker must contain panics too: %v", err)
	}
}

// TestRunCellJournalSkip: a journaled cell is returned without invoking
// compute, and the skip is counted.
func TestRunCellJournalSkip(t *testing.T) {
	tel := telemetry.New()
	clumsy.SetDefaultTelemetry(tel)
	defer clumsy.SetDefaultTelemetry(nil)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Journal: j}
	var out int
	if err := runCell(o, "s", 0, "extra", &out, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("out = %d, want 7", out)
	}

	// Reopen with resume and hit the same cell: compute must not run.
	j2, n, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("journal reloaded %d entries, want 1", n)
	}
	o2 := Options{Journal: j2}
	out = 0
	if err := runCell(o2, "s", 0, "extra", &out, func() (int, error) {
		t.Fatal("journaled cell recomputed")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("journal replayed %d, want 7", out)
	}
	if got := tel.Registry.Counter(telemetry.CtrCampaignCellsSkipped).Load(); got != 1 {
		t.Fatalf("campaign.cells_skipped = %d, want 1", got)
	}

	// A different config fingerprint misses and recomputes.
	o3 := Options{Journal: j2, Packets: 999}
	out = 0
	if err := runCell(o3, "s", 0, "extra", &out, func() (int, error) { return 8, nil }); err != nil {
		t.Fatal(err)
	}
	if out != 8 {
		t.Fatalf("config change must miss the journal: out = %d, want 8", out)
	}
}
