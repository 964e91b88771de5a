// Package stats provides the small statistical toolkit used by the
// experiment harness: streaming mean/variance accumulation (Welford),
// standard errors, and normal-approximation confidence intervals for the
// trial-averaged quantities the tables report.
package stats

import "math"

// Sample accumulates observations with Welford's online algorithm, which
// is numerically stable for long runs of near-equal values (exactly the
// regime of trial-averaged EDF ratios).
type Sample struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the sample.
func (s *Sample) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (zero for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// z95 is the two-sided 95% normal quantile. Trial counts are small, so
// this understates the t-interval slightly; the tables label the value as
// an approximate interval.
const z95 = 1.96

// CI95 returns the half-width of the approximate 95% confidence interval
// of the mean.
func (s *Sample) CI95() float64 { return z95 * s.StdErr() }
