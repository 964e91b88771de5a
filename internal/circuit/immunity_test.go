package circuit

import (
	"math"
	"sync"
	"testing"
)

func TestDefaultCellCalibration(t *testing.T) {
	c := DefaultCell()
	got := c.FaultProbabilityAtSwing(1)
	if math.Abs(got-BaseFaultProbability)/BaseFaultProbability > 1e-6 {
		t.Fatalf("P_E(Vsr=1) = %.4g, want %.4g", got, BaseFaultProbability)
	}
}

// TestDefaultCellIsOneFreshCalibration checks that the once-per-process
// calibration, reached from several goroutines as the parallel grid
// workers reach it, is bit-identical to calibrating a fresh cell, and that
// each caller gets its own copy.
func TestDefaultCellIsOneFreshCalibration(t *testing.T) {
	want := Cell{Margin: 0.5, Gamma: 0.4, Tau: 0.01}
	want.Calibrate(BaseFaultProbability)
	cells := make([]Cell, 8)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i] = DefaultCell()
		}()
	}
	wg.Wait()
	for i, c := range cells {
		for _, f := range [][2]float64{{c.Margin, want.Margin}, {c.Gamma, want.Gamma}, {c.Tau, want.Tau}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("goroutine %d: DefaultCell() = %+v, fresh calibration %+v", i, c, want)
			}
		}
	}
	cells[0].Margin = 0
	if got := DefaultCell().Margin; math.Float64bits(got) != math.Float64bits(want.Margin) {
		t.Fatalf("changing a returned cell changed the shared calibration: Margin = %v", got)
	}
}

func TestCriticalAmplitudeShape(t *testing.T) {
	c := DefaultCell()
	// Lower swing -> lower critical amplitude (easier to flip).
	if c.CriticalAmplitude(0.05, 0.5) >= c.CriticalAmplitude(0.05, 1.0) {
		t.Fatal("critical amplitude should drop with swing")
	}
	// Shorter pulses need larger amplitudes.
	if c.CriticalAmplitude(0.01, 1.0) <= c.CriticalAmplitude(0.05, 1.0) {
		t.Fatal("critical amplitude should rise for short pulses")
	}
	if !math.IsInf(c.CriticalAmplitude(0, 1.0), 1) {
		t.Fatal("zero-duration pulse should never flip the cell")
	}
}

func TestImmunityCurveOrdering(t *testing.T) {
	c := DefaultCell()
	_, full := c.ImmunityCurve(1.0, 50)
	_, reduced := c.ImmunityCurve(0.6, 50)
	for i := range full {
		if reduced[i] >= full[i] {
			t.Fatalf("immunity curve at reduced swing should be lower at index %d", i)
		}
	}
}

func TestFaultProbabilityMonotoneInSwing(t *testing.T) {
	c := DefaultCell()
	prev := math.Inf(1)
	for vsr := 0.3; vsr <= 1.0; vsr += 0.05 {
		p := c.FaultProbabilityAtSwing(vsr)
		if p >= prev {
			t.Fatalf("fault probability should fall as swing rises (vsr=%.2f)", vsr)
		}
		if p <= 0 || p >= 1 {
			t.Fatalf("fault probability out of range at vsr=%.2f: %v", vsr, p)
		}
		prev = p
	}
}

func TestFaultProbabilityKnee(t *testing.T) {
	// The headline shape of Figure 5: the curve is flat until the clock
	// cycle is roughly halved and rises sharply at Cr = 0.25. The paper's
	// dynamic scheme depends on this: "the clock cycle can be reduced by
	// almost 60% before we observe a major increase in the number of
	// faults".
	c := DefaultCell()
	base := c.FaultProbability(1)
	r75 := c.FaultProbability(0.75) / base
	r50 := c.FaultProbability(0.50) / base
	r25 := c.FaultProbability(0.25) / base
	if r75 > 2.5 {
		t.Errorf("Cr=0.75 fault ratio %v, want modest (< 2.5)", r75)
	}
	if r50 < 1.5 || r50 > 8 {
		t.Errorf("Cr=0.50 fault ratio %v, want mild knee (1.5..8)", r50)
	}
	if r25 < 10 {
		t.Errorf("Cr=0.25 fault ratio %v, want sharp rise (> 10x)", r25)
	}
	if !(r75 < r50 && r50 < r25) {
		t.Errorf("ratios not increasing: %v %v %v", r75, r50, r25)
	}
}

func TestCalibrateRejectsBadTargets(t *testing.T) {
	c := DefaultCell()
	for _, target := range []float64{0, 1, -0.1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Calibrate(%v) did not panic", target)
				}
			}()
			c.Calibrate(target)
		}()
	}
}

func TestCalibrateHitsArbitraryTargets(t *testing.T) {
	c := Cell{Margin: 0.5, Gamma: 0.4, Tau: 0.01}
	for _, target := range []float64{1e-9, 1e-6, 1e-4} {
		c.Calibrate(target)
		got := c.FaultProbabilityAtSwing(1)
		if math.Abs(got-target)/target > 1e-5 {
			t.Errorf("calibrated to %.3g, want %.3g", got, target)
		}
	}
}
