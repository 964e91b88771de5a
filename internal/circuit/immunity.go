package circuit

import (
	"math"
	"sync"
)

// Cell describes the noise immunity of a 6-transistor SRAM cell operated at
// a reduced voltage swing (Figure 2). The feedback loop of the cell cannot
// recover from a noise pulse whose amplitude and duration lie above the
// immunity curve; the curve drops as the voltage swing shrinks, making a
// faster-clocked (lower-swing) cell easier to upset.
//
// The immunity boundary is modelled as
//
//	Acrit(Dr, Vsr) = Margin * Vsr^Gamma * (1 + Tau/Dr)
//
// Margin is the static noise margin of the cell at full swing, as a
// fraction of the full-swing voltage. Gamma < 1 captures the feedback
// loop's nonlinear sensitivity: early swing reductions barely erode the
// margin, deep reductions erode it quickly. Tau is the regenerative time
// constant of the feedback loop: short pulses need disproportionately large
// amplitudes to flip the cell.
type Cell struct {
	Margin float64 // static noise margin at full swing, fraction of Vfs
	Gamma  float64 // swing sensitivity exponent of the feedback loop
	Tau    float64 // regenerative time constant, fraction of Cfs
}

// DefaultCell returns the calibrated 6T cell used throughout the paper
// reproduction. Margin is fixed numerically (see Calibrate) so that the
// integrated fault probability at full swing equals BaseFaultProbability,
// the Shivakumar-consistent anchor the paper quotes (2.59e-7 per bit).
// The calibration is a pure function of constants, so it runs once per
// process; every call returns a copy of that one cell.
func DefaultCell() Cell { return defaultCell() }

var defaultCell = sync.OnceValue(func() Cell {
	c := Cell{Margin: 0.5, Gamma: 0.4, Tau: 0.01}
	c.Calibrate(BaseFaultProbability)
	return c
})

// BaseFaultProbability is the per-bit fault probability at full voltage
// swing (Cr = 1) used to anchor the model, matching the initial fault
// probability of 2.59e-7 chosen in Section 5.1.
const BaseFaultProbability = 2.59e-7

// CriticalAmplitude returns the smallest relative noise amplitude that
// upsets the cell for a pulse of relative duration dr at relative voltage
// swing vsr. Durations at or below zero cannot flip the cell (infinite
// critical amplitude).
func (c Cell) CriticalAmplitude(dr, vsr float64) float64 {
	if dr <= 0 {
		return math.Inf(1)
	}
	return c.Margin * math.Pow(vsr, c.Gamma) * (1 + c.Tau/dr)
}

// ImmunityCurve samples the noise-immunity curve of Figure 2b for a given
// relative voltage swing: for n+1 relative durations spanning (0, MaxDuration]
// it returns the critical amplitude boundary. Pulses above the boundary
// cause a logic failure.
func (c Cell) ImmunityCurve(vsr float64, n int) (dr, ar []float64) {
	if n < 1 {
		panic("circuit: ImmunityCurve needs at least one interval")
	}
	dr = make([]float64, n+1)
	ar = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		d := MaxDuration * float64(i+1) / float64(n+1)
		dr[i] = d
		ar[i] = c.CriticalAmplitude(d, vsr)
	}
	return dr, ar
}

// FaultProbabilityAtSwing integrates the noise distributions of Eq. 2 and
// Eq. 3 over the region above the immunity curve, yielding the probability
// that a single noise event upsets the cell at relative swing vsr
// (Figure 4):
//
//	P_E(Vsr) = ∫0..MaxDuration P(Dr) · P(Ar > Acrit(Dr, Vsr)) dDr
//
// The integral is evaluated with composite Simpson quadrature; the
// integrand is smooth, so a modest node count converges far below the
// model's own accuracy.
func (c Cell) FaultProbabilityAtSwing(vsr float64) float64 {
	const steps = 512 // Simpson intervals; even
	f := func(dr float64) float64 {
		return DurationDensity(dr) * AmplitudeTail(c.CriticalAmplitude(dr, vsr))
	}
	h := MaxDuration / steps
	sum := f(1e-12) + f(MaxDuration-1e-12)
	for i := 1; i < steps; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// FaultProbability composes the swing curve of Figure 1b with the
// swing-level fault probability of Figure 4 to obtain the per-bit fault
// probability at relative cycle time cr (Figure 5). Cycle times at or above
// the full-swing cycle time operate at full swing.
func (c Cell) FaultProbability(cr float64) float64 {
	return c.FaultProbabilityAtSwing(VoltageSwing(cr))
}

// Calibrate adjusts the cell's static noise margin so that the integrated
// fault probability at full swing equals target. The fault probability is
// strictly decreasing in Margin, so a bisection converges unconditionally.
func (c *Cell) Calibrate(target float64) {
	if target <= 0 || target >= 1 {
		panic("circuit: calibration target out of (0, 1)")
	}
	lo, hi := 0.01, 5.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c.Margin = mid
		if c.FaultProbabilityAtSwing(1) > target {
			lo = mid // margin too small, faults too likely
		} else {
			hi = mid
		}
	}
	c.Margin = (lo + hi) / 2
}
