package stats

import (
	"math"
	"testing"

	"clumsy/internal/fault"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatalf("empty sample not all-zero: %+v", s)
	}
}

func TestKnownValues(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := fault.NewRNG(5)
	var small, large Sample
	for i := 0; i < 10; i++ {
		small.Add(rng.Float64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI should shrink with n: %v vs %v", large.CI95(), small.CI95())
	}
	// Uniform(0,1): mean 0.5, sd ~0.289; CI95 at n=1000 ~ 0.018.
	if math.Abs(large.Mean()-0.5) > 0.05 {
		t.Fatalf("mean = %v", large.Mean())
	}
	if large.CI95() > 0.03 {
		t.Fatalf("CI95 = %v", large.CI95())
	}
}

func TestNumericalStability(t *testing.T) {
	// A classic catastrophic-cancellation case: huge offset, tiny spread.
	var s Sample
	for _, x := range []float64{1e9 + 4, 1e9 + 7, 1e9 + 13, 1e9 + 16} {
		s.Add(x)
	}
	if math.Abs(s.Mean()-(1e9+10)) > 1e-6 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.Variance()-30) > 1e-6 {
		t.Fatalf("variance = %v, want 30", s.Variance())
	}
}
