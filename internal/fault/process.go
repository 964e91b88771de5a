package fault

import "math"

// Process is the common face of every fault process the cache can host.
// The paper's memoryless per-access process (*Injector), the Gilbert–
// Elliott burst process (*Burst), and the permanent/intermittent stuck-at
// process (*StuckAt) all implement it. NextAt receives the word-aligned
// address of the access so that spatially anchored processes (stuck-at
// maps) can key faults to physical array cells; address-blind processes
// ignore it.
//
// Quiet and Skip let a caller serve a run of fault-free accesses without
// a call per access: Quiet promises that many, and Skip hands back the
// ones served. The caller must hand them back before any other call into
// the process — NextAt, SetCycleTime or SetEnabled — and never serve more
// than Quiet promised; the process then emits the mask stream that one
// NextAt per access would have emitted.
type Process interface {
	// NextAt advances the process by one access to the given word address
	// and returns the fault mask to XOR into the accessed word.
	NextAt(addr uint64) uint64
	// Quiet returns how many upcoming accesses are certain to return mask
	// 0 and to change nothing but the process's countdowns, whatever
	// their addresses: the gap to the next event, unbounded while the
	// process is disabled, and 0 when an access can fault anywhere.
	Quiet() int64
	// Skip advances the process over n accesses that Quiet promised,
	// exactly as n calls of NextAt would.
	Skip(n int64)
	// SetCycleTime moves the process to a new relative cycle time.
	SetCycleTime(cr float64)
	// SetEnabled turns fault injection on or off. Disabled accesses pass
	// through untouched and do not advance the process.
	SetEnabled(on bool)
}

var (
	_ Process = (*Injector)(nil)
	_ Process = (*Burst)(nil)
	_ Process = (*StuckAt)(nil)
)

// geometricGap draws the number of non-events before the next event of a
// Bernoulli process with probability rate per trial. It consumes exactly
// the draws the original Injector.redraw consumed, so refactoring the
// injector onto it preserves byte-identical fault traces.
func geometricGap(rng *RNG, rate float64) int64 {
	if rate <= 0 {
		return math.MaxInt64
	}
	if rate >= 1 {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := math.Floor(math.Log(u) / math.Log(1-rate))
	if g >= math.MaxInt64 || g < 0 {
		return math.MaxInt64
	}
	return int64(g)
}

// drawMask chooses the multiplicity of a fault event (with the correlated
// double/triple-bit probabilities of the model) and returns the bit mask.
// It is shared by every process so all regimes flip bits identically.
func drawMask(rng *RNG, bits int) (mask uint64) {
	n := 1
	u := rng.Float64() * (1 + DoubleBitRatio + TripleBitRatio)
	switch {
	case u > 1+DoubleBitRatio:
		n = 3
	case u > 1:
		n = 2
	}
	for flipped := 0; flipped < n; {
		b := uint(rng.Intn(bits))
		if mask&(1<<b) == 0 {
			mask |= 1 << b
			flipped++
		}
	}
	return mask
}

// BurstParams configures the Gilbert–Elliott two-state burst process.
type BurstParams struct {
	// MeanGoodAccesses is the mean residence time of the good state, in
	// accesses. In the good state faults arrive at the paper's base rate.
	MeanGoodAccesses float64
	// MeanBadAccesses is the mean residence time of the bad (droop/thermal
	// episode) state, in accesses.
	MeanBadAccesses float64
	// BadMultiplier scales the base fault rate while in the bad state.
	BadMultiplier float64
}

// DefaultBurstParams returns the calibration used by the reliability
// study: episodes roughly once per few hundred thousand accesses, lasting
// a few thousand accesses, at 100x the base rate — bursty enough that
// k-strike retry alone cannot ride them out.
func DefaultBurstParams() BurstParams {
	return BurstParams{
		MeanGoodAccesses: 4e5,
		MeanBadAccesses:  4e3,
		BadMultiplier:    100,
	}
}

// Burst is a Gilbert–Elliott two-state fault process: a Markov chain
// alternating between a good state at the paper's base rate and a bad
// state at BadMultiplier times that rate. State residence times and fault
// gaps are both geometric, so the process stays exactly reproducible from
// the seed and costs no per-access draws. Like Injector, it carries no
// checkpoint: fault time never rewinds.
type Burst struct {
	model   *Model
	rng     *RNG
	bits    int
	p       BurstParams
	enabled bool

	bad      bool
	stay     int64 // accesses remaining in the current state
	skip     int64 // fault-free accesses before the next fault
	goodRate float64
	badRate  float64

	// OnTransition, if set, is invoked on every state change with the new
	// state (true = entering the bad state). Wired to trace events.
	OnTransition func(bad bool)

	// Episodes counts the bad-state episodes entered over the run.
	Episodes uint64
}

// NewBurst returns an enabled burst process for accesses of the given bit
// width, starting in the good state at full-swing cycle time (Cr = 1).
func NewBurst(m *Model, rng *RNG, bits int, p BurstParams) *Burst {
	if bits <= 0 || bits > 64 {
		panic("fault: access width out of range")
	}
	if p.MeanGoodAccesses < 1 || p.MeanBadAccesses < 1 || p.BadMultiplier <= 0 {
		panic("fault: burst parameters out of range")
	}
	b := &Burst{model: m, rng: rng, bits: bits, p: p, enabled: true}
	b.stay = geometricGap(rng, 1/p.MeanGoodAccesses) + 1
	b.SetCycleTime(1)
	return b
}

// SetCycleTime moves the process to a new relative cycle time. Both state
// rates are recomputed and the pending fault gap is redrawn at the current
// state's new rate; state residence is rate-independent and carries over.
func (b *Burst) SetCycleTime(cr float64) {
	b.goodRate = b.model.EventRate(cr, b.bits)
	b.badRate = b.goodRate * b.p.BadMultiplier
	if b.badRate > 1 {
		b.badRate = 1
	}
	b.skip = geometricGap(b.rng, b.rate())
}

// SetEnabled turns fault injection on or off.
func (b *Burst) SetEnabled(on bool) { b.enabled = on }

// Quiet returns the accesses before the next fault or state change, so a
// toggle and its OnTransition call land on the access they land on under
// NextAt.
func (b *Burst) Quiet() int64 {
	switch {
	case !b.enabled:
		return math.MaxInt64
	case b.stay <= 0 || b.skip <= 0:
		return 0
	}
	return min(b.stay, b.skip)
}

// Skip advances the process over n accesses that Quiet promised.
func (b *Burst) Skip(n int64) {
	if b.enabled {
		b.stay -= n
		b.skip -= n
	}
}

func (b *Burst) rate() float64 {
	if b.bad {
		return b.badRate
	}
	return b.goodRate
}

func (b *Burst) toggle() {
	b.bad = !b.bad
	mean := b.p.MeanGoodAccesses
	if b.bad {
		mean = b.p.MeanBadAccesses
		b.Episodes++
	}
	b.stay = geometricGap(b.rng, 1/mean) + 1
	b.skip = geometricGap(b.rng, b.rate())
	if b.OnTransition != nil {
		b.OnTransition(b.bad)
	}
}

// NextAt advances the process by one access and returns the fault mask
// to XOR into the accessed word. The burst process is address-blind.
func (b *Burst) NextAt(addr uint64) uint64 {
	if !b.enabled {
		return 0
	}
	if b.stay <= 0 {
		b.toggle()
	}
	b.stay--
	if b.skip > 0 {
		b.skip--
		return 0
	}
	b.skip = geometricGap(b.rng, b.rate())
	return drawMask(b.rng, b.bits)
}

// StuckAtParams configures the permanent/intermittent stuck-at process.
type StuckAtParams struct {
	// WeakCellFraction is the fraction of cache words carrying one
	// marginal cell.
	WeakCellFraction float64
	// MinThreshold and MaxThreshold bound the per-cell critical cycle
	// time: a weak cell faults on every access once Cr drops below its
	// threshold (drawn uniformly from this range at seeding).
	MinThreshold float64
	MaxThreshold float64
	// IntermittentBand widens each threshold upward by this relative
	// margin: inside the band the cell faults intermittently with
	// IntermittentProb per access, modelling the marginal region a cell
	// traverses before failing hard.
	IntermittentBand float64
	IntermittentProb float64
}

// DefaultStuckAtParams returns the calibration used by the reliability
// study: about 2% of words carry a weak cell, with critical thresholds
// spread across the paper's operating range so aggressive cycle times
// expose progressively more permanent faults.
func DefaultStuckAtParams() StuckAtParams {
	return StuckAtParams{
		WeakCellFraction: 0.02,
		MinThreshold:     0.3,
		MaxThreshold:     0.8,
		IntermittentBand: 0.15,
		IntermittentProb: 0.5,
	}
}

type stuckCell struct {
	bit    int8    // faulting bit position, -1 = no weak cell
	thresh float64 // critical relative cycle time
}

// StuckAt layers a per-word stuck-at fault map over an inner transient
// process. Each weak cell carries a critical cycle time: below it the
// cell faults on every access (permanent); just above it, inside the
// intermittent band, it faults probabilistically. The map is keyed by the
// physical array word (addr/4 mod words), which for the direct-mapped L1
// data cache is exactly the frame the address occupies — so a weak cell
// strikes the same line on every visit, the access pattern line disable
// exists to contain.
type StuckAt struct {
	inner   Process
	rng     *RNG        // intermittent-band draws; cells are seeded at construction
	words   int         // power-of-two word count of the backing array
	cells   []stuckCell // weak-cell map, never mutated after construction
	band    float64
	prob    float64
	cr      float64
	enabled bool

	PermanentHits    uint64 // accesses faulted by a cell below threshold
	IntermittentHits uint64 // accesses faulted inside the band
}

// NewStuckAt seeds a stuck-at map over an array of the given word count
// (must be a power of two) and layers it on top of inner. The map is
// drawn from rng at construction, so identical seeds give identical maps.
func NewStuckAt(inner Process, rng *RNG, words int, p StuckAtParams) *StuckAt {
	if words <= 0 || words&(words-1) != 0 {
		panic("fault: stuck-at word count must be a positive power of two")
	}
	if p.WeakCellFraction < 0 || p.WeakCellFraction > 1 || p.MaxThreshold < p.MinThreshold {
		panic("fault: stuck-at parameters out of range")
	}
	s := &StuckAt{inner: inner, rng: rng, words: words, enabled: true}
	s.cells = make([]stuckCell, words)
	for w := range s.cells {
		s.cells[w].bit = -1
		if rng.Float64() < p.WeakCellFraction {
			s.cells[w].bit = int8(rng.Intn(32))
			s.cells[w].thresh = p.MinThreshold + rng.Float64()*(p.MaxThreshold-p.MinThreshold)
		}
	}
	s.band = p.IntermittentBand
	s.prob = p.IntermittentProb
	// The inner process starts at Cr = 1 from its own constructor; going
	// through SetCycleTime here would consume an extra gap draw and shift
	// the transient stream off the paper regime's — with no stuck cell
	// exposed, StuckAt must reproduce the inner process bit-for-bit.
	s.cr = 1
	return s
}

// SetCycleTime moves the process (and its inner transient process) to a
// new relative cycle time.
func (s *StuckAt) SetCycleTime(cr float64) {
	s.cr = cr
	s.inner.SetCycleTime(cr)
}

// SetEnabled turns fault injection on or off for both layers.
func (s *StuckAt) SetEnabled(on bool) {
	s.enabled = on
	s.inner.SetEnabled(on)
}

// Quiet promises no fault-free access while the process is enabled: the
// mask of an access depends on the word it reads.
func (s *StuckAt) Quiet() int64 {
	if !s.enabled {
		return math.MaxInt64
	}
	return 0
}

// Skip has nothing to advance: Quiet promises accesses only while the
// process is disabled, and a disabled access advances neither layer.
func (s *StuckAt) Skip(int64) {}

// NextAt advances the inner transient process and overlays the stuck-at
// map for the physical word the address occupies.
func (s *StuckAt) NextAt(addr uint64) uint64 {
	if !s.enabled {
		return 0
	}
	mask := s.inner.NextAt(addr)
	c := &s.cells[(addr>>2)&uint64(s.words-1)]
	if c.bit < 0 {
		return mask
	}
	switch {
	case s.cr < c.thresh:
		s.PermanentHits++
		mask |= 1 << uint(c.bit)
	case s.cr < c.thresh*(1+s.band):
		if s.rng.Float64() < s.prob {
			s.IntermittentHits++
			mask |= 1 << uint(c.bit)
		}
	}
	return mask
}
