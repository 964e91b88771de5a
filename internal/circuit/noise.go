package circuit

import "math"

// The noise environment of a victim line inside the SRAM array.
//
// A victim line is coupled to n neighbour lines. Each switching combination
// of the neighbours injects a different aggregate noise amplitude; only the
// single combination where all neighbours switch the same way produces the
// worst case, while a combinatorially large number of combinations mostly
// cancel. For large n (> 16) the resulting distribution of relative noise
// amplitudes Ar = A/Vfs saturates to the exponential density of Eq. 2:
//
//	P(Ar) = AmplitudeRate * exp(-AmplitudeRate * Ar)
//
// The noise duration Dr = D/Cfs is bounded by on-chip rise times and is
// uniform on [0, MaxDuration] (Eq. 3).
const (
	// AmplitudeRate is the exponential rate constant of the relative noise
	// amplitude distribution (Eq. 2 in the paper).
	AmplitudeRate = 28.8

	// MaxDuration is the largest relative noise duration; noise pulses are
	// limited by the rise time of the aggressor signals, roughly one tenth
	// of the full-swing cycle time (Eq. 3).
	MaxDuration = 0.1
)

// AmplitudeTail returns P(Ar > ar): the probability that a noise event has
// relative amplitude exceeding ar.
func AmplitudeTail(ar float64) float64 {
	if ar <= 0 {
		return 1
	}
	return math.Exp(-AmplitudeRate * ar)
}

// DurationDensity returns the probability density of a relative noise
// duration dr under the uniform model of Eq. 3.
func DurationDensity(dr float64) float64 {
	if dr < 0 || dr >= MaxDuration {
		return 0
	}
	return 1 / MaxDuration
}

// SwitchingCases reproduces Figure 3: for a victim line with n significant
// neighbours it returns, for each of the `bins` amplitude ranges spanning
// [0, arMax], the number of neighbour switching combinations whose aggregate
// coupled amplitude falls in that range.
//
// Each neighbour line contributes one of {-1, 0(non-switching, two ways), +1}
// unit couplings, so there are 2^(2n) combinations in total (each line has
// four edge states: rise, fall, steady-high, steady-low). The aggregate
// amplitude is |sum|/n in units of the worst case. The counts are computed
// exactly with a trinomial convolution, not by enumeration, so large n is
// cheap.
func SwitchingCases(n, bins int, arMax float64) (centers []float64, counts []float64) {
	if n < 1 || bins < 1 || arMax <= 0 {
		panic("circuit: invalid SwitchingCases arguments")
	}
	// counts over aggregate sum s in [-n, n]: coefficients of
	// (x^-1 + 2 + x)^n — each line: +1 one way, -1 one way, 0 two ways.
	coef := make([]float64, 2*n+1) // index s+n
	coef[n] = 1
	for line := 0; line < n; line++ {
		next := make([]float64, 2*n+1)
		for s := -n; s <= n; s++ {
			c := coef[s+n]
			if c == 0 {
				continue
			}
			next[s+n] += 2 * c
			if s+1 <= n {
				next[s+1+n] += c
			}
			if s-1 >= -n {
				next[s-1+n] += c
			}
		}
		coef = next
	}
	centers = make([]float64, bins)
	counts = make([]float64, bins)
	w := arMax / float64(bins)
	for i := range centers {
		centers[i] = (float64(i) + 0.5) * w
	}
	for s := -n; s <= n; s++ {
		ar := math.Abs(float64(s)) / float64(n)
		b := int(ar / w)
		if b >= bins {
			b = bins - 1
		}
		counts[b] += coef[s+n]
	}
	return centers, counts
}
