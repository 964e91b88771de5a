// Package metrics implements the paper's application-level error
// measurement (Section 2) and comparison metric (Section 4.1). Each
// application marks the values of its important data structures as it
// processes packets; a fault-free golden execution and a fault-injected
// execution of the same trace are compared observation by observation. The
// fraction of packets with any mismatch is the fallibility, fatal errors
// (executions that cannot complete) are tracked separately, and the
// energy–delay^m–fallibility^n product combines energy, per-packet delay,
// and error probability into a single figure of merit.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Observation is one named data-structure value recorded during execution,
// e.g. the checksum of the packet being routed or a traversed radix-tree
// node.
type Observation struct {
	Name  string
	Value uint64
}

// PacketRecord holds the observations made while processing one packet. A
// record with Dropped set marks a packet the fault-containment machinery
// discarded mid-processing: it occupies its slot in the sequence (so later
// packets still line up with the golden run) but carries no observations.
type PacketRecord struct {
	Obs     []Observation
	Dropped bool
}

// Recorder collects observations for a whole run: the control-plane
// (initialisation) observations followed by one record per packet.
//
// Packet observations are appended into chunks of chunkObs observations,
// so recording costs one allocation per chunk rather than a growing slice
// per packet. A packet's observations always sit contiguously in one
// chunk: a packet that would cross the end of a chunk moves, with the
// observations it has so far, into a new one. Each record's Obs is capped
// at its own length, so no record can grow into its neighbour's memory.
type Recorder struct {
	Init    []Observation
	Packets []PacketRecord
	chunk   []Observation // the current chunk; its cap is the chunk size
	start   int           // where the current packet's observations begin in chunk
	inInit  bool
}

// chunkObs is the number of observations a chunk holds.
const chunkObs = 1024

// NewRecorder returns a recorder in the control-plane phase: observations
// recorded before the first BeginPackets call are initialisation values.
func NewRecorder() *Recorder {
	return &Recorder{inInit: true}
}

// Observe records a named value in the current phase.
func (r *Recorder) Observe(name string, v uint64) {
	if r.inInit {
		r.Init = append(r.Init, Observation{name, v})
		return
	}
	if len(r.chunk) == cap(r.chunk) {
		// Move the current packet to a new chunk, at least twice its
		// size so far, so one long packet still appends in amortised
		// constant time.
		partial := r.chunk[r.start:]
		r.chunk = append(make([]Observation, 0, max(chunkObs, 2*len(partial))), partial...)
		r.start = 0
	}
	r.chunk = append(r.chunk, Observation{name, v})
}

// BeginPackets ends the control-plane phase.
func (r *Recorder) BeginPackets() { r.inInit = false }

// EndPacket finalises the current packet's observations.
func (r *Recorder) EndPacket() {
	end := len(r.chunk)
	r.Packets = append(r.Packets, PacketRecord{Obs: r.chunk[r.start:end:end]})
	r.start = end
}

// DropPacket records the current packet as dropped by fault containment:
// its partial observations are discarded (the packet never completed, so
// they are not comparable) and a dropped marker keeps the sequence aligned
// with the golden run.
func (r *Recorder) DropPacket() {
	r.chunk = r.chunk[:r.start]
	r.Packets = append(r.Packets, PacketRecord{Dropped: true})
}

// InitErrorName is the synthetic structure name under which initialisation
// (control-plane) mismatches are reported, matching the "Initialization
// Error" series of Figures 6 and 7.
const InitErrorName = "initialization"

// ShapeErrorName is the synthetic structure name under which divergent
// observation sequences (the faulty run recorded more, fewer, or
// differently named values for a packet — corrupted control flow) are
// reported.
const ShapeErrorName = "control-flow"

// StructCount accumulates mismatches for one observed structure.
type StructCount struct {
	Errors int // mismatching observations
	Total  int // compared observations
}

// Report is the outcome of comparing a faulty run against its golden run.
type Report struct {
	GoldenPackets int  // packets in the golden execution
	Processed     int  // packets the faulty execution completed
	Dropped       int  // packets dropped (fatal errors contained) mid-trace
	Fatal         bool // the faulty execution was cut short
	PacketsWith   int  // packets with at least one mismatch
	InitMismatch  bool // control-plane observations diverged
	PerStructure  map[string]StructCount
}

// Compare matches the faulty recorder against the golden one.
func Compare(golden, faulty *Recorder) Report {
	completed, dropped := 0, 0
	for i := range faulty.Packets {
		if faulty.Packets[i].Dropped {
			dropped++
		} else {
			completed++
		}
	}
	rep := Report{
		GoldenPackets: len(golden.Packets),
		Processed:     completed,
		Dropped:       dropped,
		Fatal:         len(faulty.Packets) < len(golden.Packets),
		PerStructure:  make(map[string]StructCount),
	}
	bump := func(name string, mismatch bool) {
		c := rep.PerStructure[name]
		c.Total++
		if mismatch {
			c.Errors++
		}
		rep.PerStructure[name] = c
	}

	initBad := false
	n := len(golden.Init)
	if len(faulty.Init) != n {
		initBad = true
		if len(faulty.Init) < n {
			n = len(faulty.Init)
		}
	}
	for i := 0; i < n; i++ {
		g, f := golden.Init[i], faulty.Init[i]
		bad := g.Name != f.Name || g.Value != f.Value
		bump(InitErrorName, bad)
		if bad {
			initBad = true
		}
	}
	rep.InitMismatch = initBad

	for p := 0; p < len(faulty.Packets) && p < rep.GoldenPackets; p++ {
		if faulty.Packets[p].Dropped {
			// A contained fatal error: no observations to compare; the drop
			// itself is accounted by Fallibility and DropRate.
			continue
		}
		g, f := golden.Packets[p].Obs, faulty.Packets[p].Obs
		pktBad := false
		shapeBad := false
		m := len(g)
		if len(f) != m {
			shapeBad = true
			if len(f) < m {
				m = len(f)
			}
		}
		for i := 0; i < m; i++ {
			if g[i].Name != f[i].Name {
				shapeBad = true
				break
			}
			bad := g[i].Value != f[i].Value
			bump(g[i].Name, bad)
			if bad {
				pktBad = true
			}
		}
		// Shape divergence is tracked per packet so its probability is
		// comparable with the per-structure series.
		bump(ShapeErrorName, shapeBad)
		if pktBad || shapeBad {
			rep.PacketsWith++
		}
	}
	return rep
}

// Fallibility returns the paper's fallibility factor: one plus the
// fraction of attempted packets that carried any error (Table I presents
// factors such as 1.055 and 1.261). A packet dropped by fault containment
// is maximally erroneous — it was never delivered — so it counts in both
// numerator and denominator; with no drops (the abort policy) the formula
// reduces to the paper's processed-packet fraction exactly.
func (r Report) Fallibility() float64 {
	attempted := r.Processed + r.Dropped
	if attempted == 0 {
		// Nothing completed: the run is maximally fallible.
		return 2
	}
	return 1 + float64(r.PacketsWith+r.Dropped)/float64(attempted)
}

// DropRate returns the fraction of attempted packets that were dropped by
// fault containment (zero under the abort policy).
func (r Report) DropRate() float64 {
	attempted := r.Processed + r.Dropped
	if attempted == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(attempted)
}

// FatalProbability returns the per-packet probability of a fatal error
// implied by this run: for an aborted run, one over the number of packets
// attempted before the execution died (the paper's estimator); for a
// contained run that completed the trace, the observed drop rate; zero for
// a clean run.
func (r Report) FatalProbability() float64 {
	if r.Fatal {
		return 1 / float64(r.Processed+r.Dropped+1)
	}
	if r.Dropped > 0 {
		return r.DropRate()
	}
	return 0
}

// ErrorProbability returns the per-packet mismatch probability of one
// observed structure.
func (r Report) ErrorProbability(name string) float64 {
	c, ok := r.PerStructure[name]
	if !ok || c.Total == 0 {
		return 0
	}
	return float64(c.Errors) / float64(c.Total)
}

// StructureNames returns the observed structure names in sorted order.
func (r Report) StructureNames() []string {
	names := make([]string, 0, len(r.PerStructure))
	for n := range r.PerStructure { //lint:det-ok — iteration order irrelevant: names are sorted before return
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EDFExponents are the weights of the comparison metric. The paper uses
// k=1, m=2, n=2: delay and fallibility matter more than energy
// (Section 4.1).
type EDFExponents struct{ K, M, N float64 }

// DefaultExponents returns the paper's energy¹-delay²-fallibility² weights.
func DefaultExponents() EDFExponents { return EDFExponents{K: 1, M: 2, N: 2} }

// EDF computes energy^k · delay^m · fallibility^n.
func (e EDFExponents) EDF(energy, delay, fallibility float64) float64 {
	if energy < 0 || delay < 0 || fallibility < 0 {
		panic(fmt.Sprintf("metrics: negative EDF input (%v, %v, %v)", energy, delay, fallibility))
	}
	return math.Pow(energy, e.K) * math.Pow(delay, e.M) * math.Pow(fallibility, e.N)
}
