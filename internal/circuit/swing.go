// Package circuit models the circuit-level behaviour underlying the clumsy
// packet processor: the relation between the clock cycle time of an SRAM
// array and its voltage swing, the noise environment created by capacitively
// coupled neighbour lines, the noise immunity of a 6-transistor SRAM cell,
// and — by integrating the noise distributions over the immunity surface —
// the probability of a logic fault per bit access as a function of the
// relative cycle time Cr (Section 3 of the paper; Figures 1–5, Eq. 1–4).
package circuit

import "math"

// SwingK is the RC-charging shape constant of the voltage-swing curve.
// It is calibrated so that the cache energy (linear in swing) shrinks by
// 6%, 19% and 45% at Cr = 0.75, 0.5 and 0.25, matching Section 5.4.
const SwingK = 2.75

// VoltageSwing returns the relative voltage swing Vsr = Vs/Vfs reached at a
// circuit node when it is clocked with relative cycle time cr = C/Cfs
// (Figure 1b). The node charges exponentially toward Vdd; at the full-swing
// cycle time Cfs (cr = 1) the swing is normalised to exactly 1. Cycle times
// above Cfs cannot exceed the full swing, so the curve is clamped at 1.
//
// VoltageSwing panics for non-positive cr: a zero cycle time is not a
// physical operating point.
func VoltageSwing(cr float64) float64 {
	if cr <= 0 {
		panic("circuit: non-positive relative cycle time")
	}
	if cr >= 1 {
		return 1
	}
	return (1 - math.Exp(-SwingK*cr)) / (1 - math.Exp(-SwingK))
}

// SwingCurve samples the voltage-swing curve of Figure 1b at n+1 evenly
// spaced cycle times spanning [crMin, 1]. It returns parallel slices of
// cycle times and swings, ordered by increasing cycle time.
func SwingCurve(crMin float64, n int) (cr, vsr []float64) {
	if n < 1 {
		panic("circuit: SwingCurve needs at least one interval")
	}
	if crMin <= 0 || crMin > 1 {
		panic("circuit: crMin out of (0, 1]")
	}
	cr = make([]float64, n+1)
	vsr = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		c := crMin + (1-crMin)*float64(i)/float64(n)
		cr[i] = c
		vsr[i] = VoltageSwing(c)
	}
	return cr, vsr
}
