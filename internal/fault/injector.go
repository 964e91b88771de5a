package fault

// Injector realises the fault process for a stream of fixed-width cache
// accesses. Instead of drawing a Bernoulli sample per access, it draws the
// gap to the next faulty access from the geometric distribution — an exact
// reformulation of the independent-access process that makes rates around
// 1e-7 essentially free to simulate.
//
// The injector can be enabled and disabled (the control-plane/data-plane
// fault experiments of Section 5.2 inject faults into only one execution
// segment); while disabled, accesses pass through untouched and do not
// advance the fault process.
//
// Fault time advances monotonically by design — a packet rollback never
// rewinds the fault environment, so the injector carries no checkpoint.
type Injector struct {
	model   *Model
	rng     *RNG
	bits    int
	rate    float64
	skip    int64 // fault-free accesses remaining before the next fault
	enabled bool
}

// NewInjector returns an enabled injector for accesses of the given bit
// width, operating at full-swing cycle time (Cr = 1).
func NewInjector(m *Model, rng *RNG, bits int) *Injector {
	if bits <= 0 || bits > 64 {
		panic("fault: access width out of range")
	}
	in := &Injector{model: m, rng: rng, bits: bits, enabled: true}
	in.SetCycleTime(1)
	return in
}

// SetCycleTime moves the injector to a new relative cycle time. The gap to
// the next fault is redrawn at the new rate; by the memorylessness of the
// geometric distribution this is statistically equivalent to continuing the
// process at the new rate.
func (in *Injector) SetCycleTime(cr float64) {
	in.rate = in.model.EventRate(cr, in.bits)
	in.redraw()
}

// SetEnabled turns fault injection on or off.
func (in *Injector) SetEnabled(on bool) { in.enabled = on }

func (in *Injector) redraw() {
	// Number of fault-free accesses before the next fault: geometric.
	in.skip = geometricGap(in.rng, in.rate)
}

// NextAt advances the fault process by one access and returns the fault
// mask to XOR into the accessed word: zero for the overwhelming majority
// of accesses, or a mask with one, two, or three set bits on a fault event
// (with the correlated probabilities of the model). The paper's process
// is address-blind.
func (in *Injector) NextAt(addr uint64) uint64 {
	if !in.enabled {
		return 0
	}
	if in.skip > 0 {
		in.skip--
		return 0
	}
	in.redraw()
	return drawMask(in.rng, in.bits)
}
