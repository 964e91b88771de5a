package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// histBuckets is one bucket per bit length of the observed value: bucket 0
// holds zeros, bucket i holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a lock-free log2-bucketed histogram of uint64 observations.
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Bucket is one histogram bucket in snapshot form: Count observations were
// at most Le.
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, with only the
// occupied buckets and non-cumulative per-bucket counts.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
	}
	return s
}

// Registry is a named collection of counters and histograms. Lookups
// get-or-create under a mutex; the returned instruments themselves are
// lock-free, so hot code should look its instruments up once and keep the
// pointers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent use. A nil registry returns a throwaway counter so callers
// never need a nil check before incrementing.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Safe
// for concurrent use; a nil registry returns a throwaway histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of the registry contents.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64)}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot)
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON writes the registry contents as one indented JSON object with
// deterministically ordered keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format, with metric names sanitised (dots become underscores)
// and prefixed "clumsy_".
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, s.Counters[name]); err != nil {
			return err
		}
	}

	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		m := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", m); err != nil {
			return err
		}
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", m, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			m, h.Count, m, h.Sum, m, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a dotted registry name onto a valid Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("clumsy_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
