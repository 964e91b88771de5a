package workload

import (
	"bytes"
	"math"
	"testing"

	"clumsy/internal/packet"
)

func baseTrace(t *testing.T, n int) *packet.Trace {
	t.Helper()
	return packet.MustGenerate(packet.TraceConfig{
		Packets: n, Flows: 16, PayloadMin: 40, PayloadMax: 200, Seed: 0x5eed,
	})
}

func TestParseShapeRoundtrip(t *testing.T) {
	for _, s := range []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash, ShapeOnOff} {
		got, err := ParseShape(s.String())
		if err != nil || got != s {
			t.Errorf("ParseShape(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseShape("tsunami"); err == nil {
		t.Error("unknown shape parsed")
	}
	if _, err := ParseShape(""); err == nil {
		t.Error("empty shape parsed; callers must default explicitly")
	}
}

func TestIdentitySpecReturnsSameTrace(t *testing.T) {
	tr := baseTrace(t, 50)
	if got := (Spec{}).Apply(tr, 7); got != tr {
		t.Error("zero-value spec did not return the input trace unchanged")
	}
	if !(Spec{}).IsZero() || (Spec{Adversarial: 0.1}).IsZero() {
		t.Error("IsZero misclassifies")
	}
}

func TestApplyIsDeterministicInSeed(t *testing.T) {
	tr := baseTrace(t, 200)
	spec := Spec{Shape: ShapeFlash, Adversarial: 0.2, Churn: 0.3}
	a := spec.Apply(tr, 42)
	b := spec.Apply(tr, 42)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("lengths diverge")
	}
	sameAsInput := true
	for i := range a.Packets {
		pa, pb := &a.Packets[i], &b.Packets[i]
		if pa.Src != pb.Src || pa.SrcPort != pb.SrcPort || pa.DstPort != pb.DstPort ||
			!bytes.Equal(pa.Raw, pb.Raw) {
			t.Fatalf("packet %d differs between identically seeded applications", i)
		}
		orig := &tr.Packets[i]
		if pa.Src != orig.Src || pa.Raw != nil {
			sameAsInput = false
		}
	}
	if sameAsInput {
		t.Fatal("adv=0.2/churn=0.3 over 200 packets mutated nothing")
	}
	// A different seed must mutate a different packet set.
	c := spec.Apply(tr, 43)
	diff := false
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i].Raw, c.Packets[i].Raw) || a.Packets[i].Src != c.Packets[i].Src {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 42 and 43 produced identical mutations")
	}
	// The input trace is never modified.
	for i := range tr.Packets {
		if tr.Packets[i].Raw != nil {
			t.Fatal("Apply mutated the input trace")
		}
	}
}

func TestApplyMutationKinds(t *testing.T) {
	tr := baseTrace(t, 400)
	spec := Spec{Adversarial: 0.25, Churn: 0.25}
	out := spec.Apply(tr, 9)
	var truncated, fuzzed, churned int
	for i := range out.Packets {
		p := &out.Packets[i]
		switch {
		case p.Raw != nil && len(p.Raw) < packet.HeaderLen:
			truncated++
		case p.Raw != nil:
			fuzzed++
			hdr := p.Header()
			if bytes.Equal(p.Raw[:packet.HeaderLen], hdr[:]) {
				t.Error("fuzzed image is byte-identical to the canonical header")
			}
		case p.Src != tr.Packets[i].Src:
			churned++
			if p.Src&0xff000000 != 0x0a000000 {
				t.Errorf("churn source %#x outside the 10/8 churn block", p.Src)
			}
		}
	}
	if truncated == 0 || fuzzed == 0 || churned == 0 {
		t.Errorf("mutation mix truncated=%d fuzzed=%d churned=%d; every kind must appear", truncated, fuzzed, churned)
	}
}

func TestRateAtMeanAndFloor(t *testing.T) {
	const samples = 10000
	for _, spec := range []Spec{
		{Shape: ShapeSteady},
		{Shape: ShapeDiurnal},
		{Shape: ShapeFlash},
		{Shape: ShapeOnOff},
		{Shape: ShapeSteady, Shape2: ShapeDiurnal, Periods2: 5},
	} {
		sum := 0.0
		for i := 0; i < samples; i++ {
			r := spec.RateAt(float64(i) / samples)
			if r < minRate {
				t.Fatalf("%s: rate %g below the floor %g", spec, r, minRate)
			}
			sum += r
		}
		if mean := sum / samples; math.Abs(mean-1) > 0.02 {
			t.Errorf("%s: mean rate %g, want ~1 (shapes redistribute load, not add it)", spec, mean)
		}
	}
	// Out-of-range positions clamp instead of exploding.
	s := Spec{Shape: ShapeDiurnal}
	if r := s.RateAt(-1); r != s.RateAt(0) {
		t.Error("negative position did not clamp to 0")
	}
	if r := s.RateAt(2); math.IsNaN(r) || r < minRate {
		t.Error("position past 1 did not clamp")
	}
}

// TestStackedRateConservation is the regression gate on shape stacking:
// for every pair of stacked shapes the mean rate over the stream must
// stay pinned at 1 — the product profile redistributes load in time, it
// never adds or sheds any.
func TestStackedRateConservation(t *testing.T) {
	const samples = 10000
	shapes := []Shape{ShapeSteady, ShapeDiurnal, ShapeFlash, ShapeOnOff}
	for _, s1 := range shapes {
		for _, s2 := range shapes {
			for _, spec := range []Spec{
				{Shape: s1, Shape2: s2},
				{Shape: s1, Shape2: s2, Periods2: 5},
			} {
				sum := 0.0
				for i := 0; i < samples; i++ {
					r := spec.RateAt((float64(i) + 0.5) / samples)
					if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
						t.Fatalf("%s: rate %g is not strictly positive and finite", spec, r)
					}
					sum += r
				}
				if mean := sum / samples; math.Abs(mean-1) > 0.01 {
					t.Errorf("%s: stacked mean rate %g, want ~1", spec, mean)
				}
			}
		}
	}
}

// TestStackedSpecIdentityAndFingerprint: a steady second shape is the
// exact unstacked profile (and fingerprint), and a real stack shows up
// in the fingerprint so journal keys distinguish it.
func TestStackedSpecIdentityAndFingerprint(t *testing.T) {
	plain := Spec{Shape: ShapeDiurnal}
	stackedSteady := Spec{Shape: ShapeDiurnal, Shape2: ShapeSteady}
	for i := 0; i < 100; i++ {
		frac := float64(i) / 100
		if plain.RateAt(frac) != stackedSteady.RateAt(frac) {
			t.Fatalf("steady stack changed the profile at %g", frac)
		}
	}
	if plain.String() != stackedSteady.String() {
		t.Errorf("steady stack changed the fingerprint: %q vs %q", plain, stackedSteady)
	}
	stacked := Spec{Shape: ShapeDiurnal, Shape2: ShapeOnOff}
	if got, want := stacked.String(), "diurnal+onoff/adv=0.00/churn=0.00"; got != want {
		t.Errorf("stacked fingerprint = %q, want %q", got, want)
	}
	if stacked.IsZero() {
		t.Error("stacked spec reported as identity")
	}
	if !(Spec{}).IsZero() {
		t.Error("zero spec must stay the identity")
	}
}

func TestChurnClampedAgainstAdversarial(t *testing.T) {
	tr := baseTrace(t, 300)
	// adv+churn > 1: churn gives way, and every packet is still mutated at
	// most once.
	out := Spec{Adversarial: 0.8, Churn: 0.8}.Apply(tr, 3)
	for i := range out.Packets {
		p := &out.Packets[i]
		if p.Raw != nil && p.Src != tr.Packets[i].Src {
			t.Fatalf("packet %d both malformed and churned", i)
		}
	}
}
