package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("same name must return the same counter")
	}
	s := r.Snapshot()
	if s.Counters["a.b"] != 42 {
		t.Fatalf("snapshot = %v", s.Counters)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()        // must not panic
	r.Histogram("y").Observe(3) // must not panic
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1010 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	s := h.snapshot()
	// Expected occupation: le=0 (zeros):1, le=1:1, le=3 ([2,3]):2,
	// le=7 ([4,7]):1, le=1023:1.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestWriteJSONAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.l1d.reads").Add(7)
	r.Histogram("packet.instructions").Observe(5)

	var jb bytes.Buffer
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(jb.Bytes(), &s); err != nil {
		t.Fatalf("JSON dump does not round-trip: %v", err)
	}
	if s.Counters["cache.l1d.reads"] != 7 || s.Histograms["packet.instructions"].Count != 1 {
		t.Fatalf("round-trip = %+v", s)
	}

	var pb bytes.Buffer
	if err := r.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	text := pb.String()
	for _, want := range []string{
		"# TYPE clumsy_cache_l1d_reads counter",
		"clumsy_cache_l1d_reads 7",
		"# TYPE clumsy_packet_instructions histogram",
		`clumsy_packet_instructions_bucket{le="+Inf"} 1`,
		"clumsy_packet_instructions_sum 5",
		"clumsy_packet_instructions_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestRunTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tel := New()
	tel.SetSink(sink)

	cycle := 0.0
	rt := tel.StartRun(func() float64 { return cycle })
	if rt == nil {
		t.Fatal("StartRun returned nil with a sink installed")
	}
	rt.RunStart("route", 100, 1, 0.5, true, "parity", 2, 25)
	cycle = 123.5
	rt.FaultInjection("read", 2, 0xdead)
	rt.Recovery("retry", 1, 0xdead)
	rt.FreqTransition(100, "speed up", 0.25)
	rt.PacketDrop(57, `watchdog "quoted"`)
	rt.StateRestore(57, 3, "watchdog")
	rt.RunEnd(100, 1, 12345, false)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	types := []string{"run_start", "fault_injection", "recovery", "freq_transition", "packet_drop", "state_restore", "run_end"}
	sc := bufio.NewScanner(&buf)
	i := 0
	for ; sc.Scan(); i++ {
		if i == len(types) {
			t.Fatalf("sink holds more than %d records", len(types))
		}
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, sc.Text())
		}
		if ev["type"] != types[i] {
			t.Fatalf("line %d type = %v, want %s", i, ev["type"], types[i])
		}
		if ev["run"] != float64(1) {
			t.Fatalf("line %d run = %v", i, ev["run"])
		}
		if _, ok := ev["cycle"].(float64); !ok {
			t.Fatalf("line %d has no numeric cycle: %v", i, ev)
		}
		if i > 0 && ev["cycle"] != 123.5 {
			t.Fatalf("line %d cycle = %v, want 123.5", i, ev["cycle"])
		}
	}
	if i != len(types) {
		t.Fatalf("sink holds %d records, want %d", i, len(types))
	}
}

func TestDisabledRunTraceIsNil(t *testing.T) {
	tel := New() // no sink
	if rt := tel.StartRun(nil); rt != nil {
		t.Fatal("StartRun without a sink must return the nil trace")
	}
	var rt *RunTrace
	// Every emit on the disabled trace must be a no-op, not a panic.
	rt.RunStart("x", 0, 0, 1, false, "none", 1, 1)
	rt.FaultInjection("read", 1, 0)
	rt.Recovery("retry", 1, 0)
	rt.FreqTransition(0, "keep", 1)
	rt.PacketDrop(0, "watchdog")
	rt.StateRestore(0, 0, "watchdog")
	rt.RunEnd(0, 0, 0, false)

	var tnil *Telemetry
	if tnil.Sink() != nil {
		t.Fatal("nil Telemetry must read as disabled")
	}
	tnil.SetSink(nil)
}

// TestConcurrentCountersAndSink exercises the shared registry and JSONL
// sink from many goroutines at once — the shape of telemetry written from
// parallelFor experiment workers. Run under -race (the CI does), and
// verify both the counter totals and that no two events interleaved.
func TestConcurrentCountersAndSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tel := New()
	tel.SetSink(sink)

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tel.Registry.Counter("shared.count")
			h := tel.Registry.Histogram("shared.hist")
			rt := tel.StartRun(nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
				rt.FaultInjection("read", 1, uint64(i))
			}
			rt.RunEnd(perWorker, 0, 0, false)
		}()
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := tel.Registry.Counter("shared.count").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := tel.Registry.Histogram("shared.hist").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d", got)
	}

	lines := 0
	runs := map[float64]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("interleaved or corrupt line: %v\n%s", err, sc.Text())
		}
		runs[ev["run"].(float64)] = true
		lines++
	}
	if want := workers * (perWorker + 1); lines != want {
		t.Fatalf("lines = %d, want %d", lines, want)
	}
	if len(runs) != workers {
		t.Fatalf("distinct run ids = %d, want %d", len(runs), workers)
	}
}
