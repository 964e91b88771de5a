package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

// amplitudeDensity is the probability density of a relative noise
// amplitude ar under the saturated exponential model of Eq. 2, zero for
// negative amplitudes. AmplitudeTail's derivative is checked against it.
func amplitudeDensity(ar float64) float64 {
	if ar < 0 {
		return 0
	}
	return AmplitudeRate * math.Exp(-AmplitudeRate*ar)
}

func TestAmplitudeDensityIntegratesToOne(t *testing.T) {
	// Trapezoid integration of the exponential density over a wide range.
	const h = 1e-4
	sum := 0.0
	for x := 0.0; x < 2.0; x += h {
		sum += h * (amplitudeDensity(x) + amplitudeDensity(x+h)) / 2
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("amplitude density integrates to %v, want 1", sum)
	}
}

func TestAmplitudeTailMatchesDensity(t *testing.T) {
	f := func(raw uint16) bool {
		ar := float64(raw) / math.MaxUint16 // in [0, 1]
		// d/dar Tail = -density
		const h = 1e-6
		num := (AmplitudeTail(ar+h) - AmplitudeTail(ar)) / h
		return math.Abs(num+amplitudeDensity(ar+h/2)) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAmplitudeTailBounds(t *testing.T) {
	if AmplitudeTail(0) != 1 {
		t.Fatalf("tail at 0 = %v", AmplitudeTail(0))
	}
	if AmplitudeTail(-1) != 1 {
		t.Fatalf("tail at negative amplitude = %v", AmplitudeTail(-1))
	}
	if AmplitudeTail(10) > 1e-100 {
		t.Fatalf("tail at 10 should be negligible, got %v", AmplitudeTail(10))
	}
}

func TestDurationDensityUniform(t *testing.T) {
	if DurationDensity(0.05) != 1/MaxDuration {
		t.Fatalf("density inside support = %v", DurationDensity(0.05))
	}
	if DurationDensity(0.2) != 0 || DurationDensity(-0.01) != 0 {
		t.Fatal("density outside support should be zero")
	}
}

func TestSwitchingCasesTotal(t *testing.T) {
	// Total number of switching combinations is 4^n = 2^(2n).
	for _, n := range []int{1, 2, 4, 8, 16} {
		_, counts := SwitchingCases(n, 20, 1.0)
		total := 0.0
		for _, c := range counts {
			total += c
		}
		want := math.Pow(4, float64(n))
		if math.Abs(total-want)/want > 1e-12 {
			t.Errorf("n=%d: total cases %v, want %v", n, total, want)
		}
	}
}

func TestSwitchingCasesWorstCaseIsUnique(t *testing.T) {
	// Exactly two combinations produce the maximal |sum| = n (all lines
	// rise, or all fall); they land in the last bin together with any other
	// combination in that amplitude range.
	n := 8
	centers, counts := SwitchingCases(n, 1000, 1.0)
	last := counts[len(counts)-1]
	if last != 2 {
		t.Fatalf("worst-case bin has %v combinations, want 2 (all-up, all-down)", last)
	}
	if centers[len(centers)-1] <= centers[0] {
		t.Fatal("bin centers not increasing")
	}
}

func TestSwitchingCasesRoughlyExponential(t *testing.T) {
	// Figure 3 / Eq. 1: the count decays (approximately exponentially)
	// with amplitude; verify monotone decrease over coarse bins for n=16.
	_, counts := SwitchingCases(16, 8, 1.0)
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("counts not decaying at bin %d: %v > %v", i, counts[i], counts[i-1])
		}
	}
}

func TestSwitchingCasesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { SwitchingCases(0, 10, 1) },
		func() { SwitchingCases(4, 0, 1) },
		func() { SwitchingCases(4, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
