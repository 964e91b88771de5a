package telemetry

import (
	"sort"
	"strings"
	"testing"
)

// TestNamesTableWellFormed checks the registry's structural invariants:
// unique names, non-empty help, and sorted, kind-grouped output.
func TestNamesTableWellFormed(t *testing.T) {
	specs := Names()
	if len(specs) == 0 {
		t.Fatal("empty registry table")
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if s.Name == "" || s.Help == "" {
			t.Errorf("spec %+v: empty name or help", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate registered name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Kind.String() == "unknown" {
			t.Errorf("%s: unknown kind %d", s.Name, s.Kind)
		}
	}
	sorted := sort.SliceIsSorted(specs, func(i, j int) bool {
		if specs[i].Kind != specs[j].Kind {
			return specs[i].Kind < specs[j].Kind
		}
		return specs[i].Name < specs[j].Name
	})
	if !sorted {
		t.Error("Names() is not sorted by kind then name")
	}
}

// TestNamesTableContents pins the counts and spot-checks the entries the
// rest of the tree depends on. A new instrument must land here and in the
// table together.
func TestNamesTableContents(t *testing.T) {
	var counters, hists, events int
	for _, s := range Names() {
		switch s.Kind {
		case KindCounter:
			counters++
		case KindHistogram:
			hists++
		case KindEvent:
			events++
		}
	}
	// 62 scalar counters + 4 cache levels x 6 events.
	if want := 62 + len(CacheLevels)*6; counters != want {
		t.Errorf("got %d registered counters, want %d", counters, want)
	}
	if hists != 4 {
		t.Errorf("got %d registered histograms, want 4", hists)
	}
	if events != 16 {
		t.Errorf("got %d registered events, want 16", events)
	}
}

func TestRegistered(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		want bool
	}{
		{CtrRunCount, KindCounter, true},
		{CtrRunCount, KindHistogram, false}, // kind mismatch
		{HistPacketCycles, KindHistogram, true},
		{HistPacketCycles, KindCounter, false},
		{EventPacketDrop, KindEvent, true},
		{"run.cuont", KindCounter, false},
		{"", KindCounter, false},
	}
	for _, c := range cases {
		if got := Registered(c.name, c.kind); got != c.want {
			t.Errorf("Registered(%q, %s) = %v, want %v", c.name, c.kind, got, c.want)
		}
	}
	for _, level := range CacheLevels {
		name := CacheCounterName(level, "reads")
		if !Registered(name, KindCounter) {
			t.Errorf("cache family name %q not registered", name)
		}
	}
}

// TestCacheCounterName pins the family's naming scheme, which the JSONL
// consumers parse by splitting on dots.
func TestCacheCounterName(t *testing.T) {
	if got := CacheCounterName("l1d", "read_misses"); got != "cache.l1d.read_misses" {
		t.Errorf("CacheCounterName = %q", got)
	}
	for _, s := range Names() {
		if strings.HasPrefix(s.Name, "cache.") && strings.Count(s.Name, ".") != 2 {
			t.Errorf("cache family name %q is not cache.<level>.<event>", s.Name)
		}
	}
}
