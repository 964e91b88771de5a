// Package apps contains faithful Go reimplementations of the seven NetBench
// applications studied in the paper (Section 2): crc, tl, route, drr, nat,
// md5, and url — plus extension workloads beyond the paper's set (the IMA
// ADPCM media codec). Each application keeps its important data structures —
// lookup tables, radix-tree nodes, queues, digests — inside the simulated
// address space and reaches them exclusively through the simmem.Memory
// interface, so the clumsy L1 data cache's injected faults corrupt exactly
// the state the paper instruments.
//
// Every application separates its control-plane phase (Setup: building
// tables) from its data-plane phase (Process: per-packet work), and marks
// the values of its key data structures through the metrics recorder.
package apps

import (
	"fmt"
	"sort"

	"clumsy/internal/fault"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// Exec is the execution-accounting interface the host processor provides.
// Applications report the instructions of each basic block they execute;
// the engine charges cycles, simulates instruction fetch, and enforces the
// per-packet watchdog (a corrupted loop bound shows up as an error here,
// which the processor records as a fatal error).
type Exec interface {
	// Step accounts n instructions of the given basic block. The block
	// identifier selects an instruction-cache line, so small kernels fit
	// in the L1I as the real benchmarks do.
	Step(block, n int) error
}

// Context carries everything an application needs for one run.
type Context struct {
	Space *simmem.Space     // arena for control-plane allocations
	Mem   simmem.Memory     // the (possibly clumsy) data memory
	Rec   *metrics.Recorder // observation sink
	Exec  Exec
}

// App is one NetBench workload.
type App interface {
	// TraceConfig describes the input traffic this workload is defined
	// over (payload sizes, routable prefixes, HTTP fraction) for the given
	// packet count and seed. The same configuration drives the golden and
	// the clumsy execution.
	TraceConfig(packets int, seed uint64) packet.TraceConfig
	// Setup performs the control-plane phase: allocating and populating
	// the application's data structures for the coming trace.
	Setup(ctx *Context, tr *packet.Trace) error
	// Process handles one packet whose raw bytes (20-byte IPv4 header
	// followed by the payload) have been placed at buf in simulated
	// memory. p carries the generator's metadata (sizes, five-tuple); the
	// data plane must read actual packet content from memory.
	Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error
}

// ScratchResetter is an optional App extension for fault containment.
// After a fatal error is contained (packet dropped, simulated memory rolled
// back to the last packet boundary), the processor calls ResetScratch so
// the application discards any host-side (Go-level) state it caches between
// packets — values read from the now-restored simulated memory would
// otherwise survive the rollback and diverge from it. The seven NetBench
// applications keep all inter-packet state inside the simulated space
// (tables, queues, digests) and their Go fields are set once during Setup,
// so none of them needs the hook today; it is the contract future stateful
// workloads must meet to be containable.
type ScratchResetter interface {
	ResetScratch()
}

// StatefulApp is implemented by applications that keep per-flow state in
// a simmem.StateTable persisting across packet boundaries — state a
// contained drop cannot fully recover. The processor discovers the table
// after Setup and wires the integrity machinery around it: the corruption
// ladder handler, the periodic scrub pass, shadow commit/rollback at
// packet boundaries, and the end-of-run divergence audit.
type StatefulApp interface {
	// StateTable returns the app's flow-state table, or nil if this run
	// keeps none.
	StateTable() *simmem.StateTable
}

// routingSeed fixes the prefix population shared by an app's routing table
// and its generated traffic; the table contents are part of the workload
// definition, not of the experiment seed.
const routingSeed = 0x71

// routingPrefixes returns the canonical prefix set of size n.
func routingPrefixes(n int) []packet.Prefix {
	return packet.GeneratePrefixes(n, fault.NewRNG(routingSeed))
}

// Factory creates a fresh application instance for one run.
type Factory func() App

var registry = map[string]Factory{}

// Register adds an application factory under its canonical name. It is
// called from init functions of the application files.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("apps: duplicate registration of " + name)
	}
	registry[name] = f
}

// New instantiates a registered application.
func New(name string) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
	return f(), nil
}

// paperApps is the NetBench selection of Table I, in the paper's order.
var paperApps = []string{"crc", "tl", "route", "drr", "nat", "md5", "url"}

// Names returns the paper's seven applications (the set every
// table/figure experiment iterates), in Table I order.
func Names() []string {
	out := make([]string, 0, len(paperApps))
	for _, n := range paperApps {
		if _, ok := registry[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Extras returns the registered applications beyond the paper's seven
// (extension workloads such as the media codec), sorted.
func Extras() []string {
	var out []string
	for n := range registry { //lint:det-ok — iteration order irrelevant: result is sorted before return
		paper := false
		for _, p := range paperApps {
			if p == n {
				paper = true
				break
			}
		}
		if !paper {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
