package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVoltageSwingFullCycle(t *testing.T) {
	if got := VoltageSwing(1); got != 1 {
		t.Fatalf("VoltageSwing(1) = %v, want 1", got)
	}
	if got := VoltageSwing(1.5); got != 1 {
		t.Fatalf("VoltageSwing(1.5) = %v, want clamp at 1", got)
	}
}

func TestVoltageSwingMatchesEnergyReductions(t *testing.T) {
	// Section 5.4: cache energy (linear in swing) shrinks by 6%, 19% and
	// 45% at Cr = 0.75, 0.5, 0.25. The swing curve must land within a
	// couple of points of those anchors.
	cases := []struct {
		cr, wantReduction, tol float64
	}{
		{0.75, 0.06, 0.02},
		{0.50, 0.19, 0.02},
		{0.25, 0.45, 0.03},
	}
	for _, c := range cases {
		red := 1 - VoltageSwing(c.cr)
		if math.Abs(red-c.wantReduction) > c.tol {
			t.Errorf("Cr=%.2f: energy reduction %.3f, want %.2f±%.2f", c.cr, red, c.wantReduction, c.tol)
		}
	}
}

func TestVoltageSwingMonotone(t *testing.T) {
	prev := 0.0
	for cr := 0.05; cr <= 1.0; cr += 0.01 {
		v := VoltageSwing(cr)
		if v <= prev {
			t.Fatalf("swing not strictly increasing at cr=%.2f: %v <= %v", cr, v, prev)
		}
		prev = v
	}
}

func TestVoltageSwingPanicsOnNonPositive(t *testing.T) {
	for _, cr := range []float64{0, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VoltageSwing(%v) did not panic", cr)
				}
			}()
			VoltageSwing(cr)
		}()
	}
}

// cycleTimeForSwing inverts VoltageSwing analytically: it returns the
// relative cycle time that reaches the relative swing vsr in (0, 1].
func cycleTimeForSwing(vsr float64) float64 {
	if vsr >= 1 {
		return 1
	}
	return -math.Log(1-vsr*(1-math.Exp(-SwingK))) / SwingK
}

func TestCycleTimeForSwingInverse(t *testing.T) {
	f := func(raw uint16) bool {
		cr := 0.05 + 0.95*float64(raw)/math.MaxUint16
		back := cycleTimeForSwing(VoltageSwing(cr))
		if cr >= 1 {
			return back == 1
		}
		return math.Abs(back-cr) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwingCurveShape(t *testing.T) {
	cr, vsr := SwingCurve(0.1, 90)
	if len(cr) != 91 || len(vsr) != 91 {
		t.Fatalf("unexpected lengths %d, %d", len(cr), len(vsr))
	}
	if cr[0] != 0.1 || cr[90] != 1 {
		t.Fatalf("endpoints %v, %v", cr[0], cr[90])
	}
	if vsr[90] != 1 {
		t.Fatalf("swing at Cr=1 is %v, want 1", vsr[90])
	}
	for i := 1; i < len(vsr); i++ {
		if vsr[i] <= vsr[i-1] {
			t.Fatalf("curve not increasing at index %d", i)
		}
	}
}
