package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// studyPinsFile holds the pinned digests of campaign results. To re-pin
// after a deliberate change of output, delete the file and run the test
// once: it records the current digests and fails so the new file gets
// reviewed.
const studyPinsFile = "testdata/study_pins.json"

// TestStudyOutputPins runs campaigns through the service and digests the
// published result, or the terminal error, of each.
func TestStudyOutputPins(t *testing.T) {
	cases := map[string]Spec{
		"errors/nat": {Study: "errors", App: "nat", Packets: 120, Trials: 1},
		"edf/nat":    {Study: "edf", App: "nat", Packets: 120, Trials: 1},
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	svc := newService(t, nil)
	got := make(map[string]string, len(cases))
	for _, name := range names {
		st, err := svc.Submit(cases[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, _ := svc.Get(st.ID)
		waitDone(t, c)
		out, err := c.Result()
		if err != nil {
			out = []byte("error: " + c.status().Error)
		}
		sum := sha256.Sum256(out)
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
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want[name])
		}
	}
}
