package fault

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only %d distinct values out of 7", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(11)
	a := r.Fork(1)
	b := r.Fork(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams with distinct labels should differ")
	}
}

func TestModelMonotoneInCycleTime(t *testing.T) {
	m := NewModel(1)
	if m.PerBit(0.5) <= m.PerBit(1) {
		t.Fatal("faster clock must increase fault probability")
	}
	if m.PerBit(0.25) <= m.PerBit(0.5) {
		t.Fatal("fault probability must keep rising toward Cr=0.25")
	}
}

func TestModelScale(t *testing.T) {
	m1 := NewModel(1)
	m100 := NewModel(100)
	r := m100.PerBit(1) / m1.PerBit(1)
	if math.Abs(r-100) > 1e-9 {
		t.Fatalf("scale ratio = %v, want 100", r)
	}
}

func TestModelScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel(0) should panic")
		}
	}()
	NewModel(0)
}

func TestEventRateWidthScaling(t *testing.T) {
	m := NewModel(1)
	r32 := m.EventRate(1, 32)
	r8 := m.EventRate(1, 8)
	if math.Abs(r32/r8-4) > 1e-9 {
		t.Fatalf("event rate should scale linearly with width: %v", r32/r8)
	}
}

func TestEventRateClamped(t *testing.T) {
	m := NewModel(1e9) // absurd scale
	if r := m.EventRate(0.25, 32); r != 1 {
		t.Fatalf("event rate should clamp at 1, got %v", r)
	}
}

func TestInjectorStatisticalRate(t *testing.T) {
	// With a large scale the empirical fault rate must match the model.
	m := NewModel(1e4) // event rate around 1e-4 * 32-ish
	in := NewInjector(m, NewRNG(5), 32)
	want := m.EventRate(1, 32)
	const n = 2_000_000
	faults := 0
	for i := 0; i < n; i++ {
		if in.Next() != 0 {
			faults++
		}
	}
	got := float64(faults) / n
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical rate %.4g, want %.4g (±5%%)", got, want)
	}
	if in.Events != uint64(faults) {
		t.Fatalf("Events counter %d != observed %d", in.Events, faults)
	}
	if in.Accesses != n {
		t.Fatalf("Accesses counter %d != %d", in.Accesses, n)
	}
}

func TestInjectorMultiBitDistribution(t *testing.T) {
	m := NewModel(1e6)
	in := NewInjector(m, NewRNG(9), 32)
	var one, two, three int
	for one+two+three < 50000 {
		mask := in.Next()
		if mask == 0 {
			continue
		}
		switch popcount(mask) {
		case 1:
			one++
		case 2:
			two++
		case 3:
			three++
		default:
			t.Fatalf("mask with %d bits", popcount(mask))
		}
	}
	frTwo := float64(two) / float64(one)
	if frTwo < 0.005 || frTwo > 0.02 {
		t.Errorf("double/single ratio %.4f, want ~0.01", frTwo)
	}
	frThree := float64(three) / float64(one)
	if frThree < 0.0002 || frThree > 0.003 {
		t.Errorf("triple/single ratio %.5f, want ~0.001", frThree)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestInjectorDisabled(t *testing.T) {
	m := NewModel(1e9) // every access would fault
	in := NewInjector(m, NewRNG(1), 32)
	in.SetEnabled(false)
	for i := 0; i < 1000; i++ {
		if in.Next() != 0 {
			t.Fatal("disabled injector produced a fault")
		}
	}
	if in.Accesses != 0 {
		t.Fatal("disabled injector should not count accesses")
	}
	in.SetEnabled(true)
	if in.Next() == 0 {
		t.Fatal("re-enabled injector at rate 1 should fault immediately")
	}
}

func TestInjectorCycleTimeSwitch(t *testing.T) {
	m := NewModel(1e4)
	in := NewInjector(m, NewRNG(2), 32)
	if in.rate != m.EventRate(1, 32) {
		t.Fatalf("initial rate = %v, want the full-swing rate", in.rate)
	}
	in.SetCycleTime(0.25)
	if in.rate != m.EventRate(0.25, 32) {
		t.Fatalf("rate after switch = %v, want the Cr=0.25 rate", in.rate)
	}
	// Faster clock: empirically more faults per access.
	count := func(cr float64, n int) int {
		in.SetCycleTime(cr)
		in.ResetCounters()
		f := 0
		for i := 0; i < n; i++ {
			if in.Next() != 0 {
				f++
			}
		}
		return f
	}
	slow := count(1, 300000)
	fast := count(0.25, 300000)
	if fast <= slow*5 {
		t.Fatalf("fault counts: fast=%d slow=%d, want sharp rise at Cr=0.25", fast, slow)
	}
}

func TestInjectorMaskWithinWidth(t *testing.T) {
	m := NewModel(1e9)
	in := NewInjector(m, NewRNG(4), 8)
	for i := 0; i < 1000; i++ {
		if mask := in.Next(); mask>>8 != 0 {
			t.Fatalf("mask %x exceeds 8-bit width", mask)
		}
	}
}

func TestInjectorResetCounters(t *testing.T) {
	m := NewModel(1e9)
	in := NewInjector(m, NewRNG(4), 32)
	in.Next()
	in.ResetCounters()
	if in.Accesses != 0 || in.Events != 0 || in.BitFlips != 0 {
		t.Fatal("counters not cleared")
	}
}

func TestUint32AndEnabled(t *testing.T) {
	r := NewRNG(8)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint32()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("Uint32 produced only %d distinct values", len(seen))
	}
	in := NewInjector(NewModel(1), NewRNG(1), 32)
	if !in.enabled {
		t.Fatal("injector should start enabled")
	}
	in.SetEnabled(false)
	if in.enabled {
		t.Fatal("SetEnabled(false) ignored")
	}
}

func TestInjectorWidthValidation(t *testing.T) {
	m := NewModel(1)
	for _, bits := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d accepted", bits)
				}
			}()
			NewInjector(m, NewRNG(1), bits)
		}()
	}
}

func TestEventRatePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EventRate(_, 0) should panic")
		}
	}()
	NewModel(1).EventRate(1, 0)
}
