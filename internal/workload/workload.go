// Package workload is the workload-generator v2 substrate: seeded
// temporal shapes (diurnal, flash-crowd, bursty on/off) and adversarial
// packet-stream mutations (truncated headers, header field fuzzing,
// flow-churn floods) layered over the base traces that
// internal/packet generates. The same Spec drives both batch runs
// (clumsy.Run mutates the generated trace) and the fleet arrival process
// (cluster scales inter-arrival gaps by RateAt), so a flash crowd and a
// malformed-packet flood exercise the single-node containment path and
// the fleet admission path from one seeded description.
//
// Everything here is a pure function of (Spec, trace, seed): mutation
// draws from the seeded xorshift RNG in internal/fault and the temporal
// shapes are closed-form, so runs stay byte-deterministic.
package workload

import (
	"fmt"
	"math"
	"sync"

	"clumsy/internal/fault"
	"clumsy/internal/packet"
)

// Shape selects the temporal intensity profile of the workload over the
// course of a trace (batch runs) or an arrival schedule (fleet runs).
//
//lint:exhaustive
type Shape int

const (
	// ShapeSteady is a flat profile: the base trace unmodified in time.
	ShapeSteady Shape = iota
	// ShapeDiurnal is a smooth day/night swing: a sinusoid over two
	// cycles (Periods2 as a stacked shape) with a 4:1 peak-to-trough
	// ratio.
	ShapeDiurnal
	// ShapeFlash is a flash crowd: baseline traffic with a narrow window
	// mid-trace at several times the base rate, where churn and
	// adversarial pressure also concentrate.
	ShapeFlash
	// ShapeOnOff is a bursty on/off source: square-wave alternation
	// between an active and a near-idle half-period.
	ShapeOnOff
)

// String names the shape for reports and journal fingerprints.
func (s Shape) String() string {
	switch s {
	case ShapeSteady:
		return "steady"
	case ShapeDiurnal:
		return "diurnal"
	case ShapeFlash:
		return "flash"
	case ShapeOnOff:
		return "onoff"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// ParseShape maps a shape name back to its value.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "steady":
		return ShapeSteady, nil
	case "diurnal":
		return ShapeDiurnal, nil
	case "flash":
		return ShapeFlash, nil
	case "onoff":
		return ShapeOnOff, nil
	}
	return 0, fmt.Errorf("workload: unknown shape %q (want steady, diurnal, flash, or onoff)", s)
}

// Spec describes one workload-v2 stream. The zero value is the identity:
// steady shape, no adversarial traffic, no churn — Apply returns the
// trace unchanged and RateAt is the constant 1.
type Spec struct {
	// Shape is the temporal intensity profile, at its default cycle
	// count across the trace: 2 diurnal cycles, 8 on/off bursts.
	Shape Shape
	// Shape2 optionally stacks a second profile on the first: the local
	// rate is the product of the two shapes, renormalized so the mean
	// over the stream stays pinned at 1 (a diurnal swing with on/off
	// bursts riding on it carries the same total load as either alone).
	// ShapeSteady (the zero value) means no stacking.
	Shape2 Shape
	// Periods2 is the cycle count of the stacked shape (0 = that shape's
	// default).
	Periods2 int
	// Adversarial is the fraction of packets replaced by malformed wire
	// images: truncated headers and fuzzed header fields. Clamped to
	// [0, 1].
	Adversarial float64
	// Churn is the fraction of packets rewritten into fresh one-packet
	// flows — the flow-churn flood that thrashes stateful tables.
	// Clamped to [0, 1-Adversarial].
	Churn float64
}

// String renders the spec for journal Extra fingerprints and reports.
// The stacked shape appears only when present, so every pre-stacking
// fingerprint is unchanged.
func (s Spec) String() string {
	if s.Shape2 != ShapeSteady {
		return fmt.Sprintf("%s+%s/adv=%.2f/churn=%.2f", s.Shape, s.Shape2, s.Adversarial, s.Churn)
	}
	return fmt.Sprintf("%s/adv=%.2f/churn=%.2f", s.Shape, s.Adversarial, s.Churn)
}

// IsZero reports whether the spec is the identity workload.
func (s Spec) IsZero() bool {
	return s.Shape == ShapeSteady && s.Shape2 == ShapeSteady && s.Adversarial == 0 && s.Churn == 0
}

// minRate keeps every profile strictly positive so arrival gaps stay
// finite.
const minRate = 0.25

// defaultPeriods returns a shape's default cycle count.
func defaultPeriods(sh Shape) int {
	switch sh {
	case ShapeSteady, ShapeFlash:
		return 1
	case ShapeDiurnal:
		return 2
	case ShapeOnOff:
		return 8
	}
	return 1
}

// periods2 returns the effective cycle count of the stacked shape.
func (s Spec) periods2() int {
	if s.Periods2 > 0 {
		return s.Periods2
	}
	return defaultPeriods(s.Shape2)
}

// shapeRate is one profile's raw closed-form intensity: mean 1 over
// [0, 1) for every shape in isolation.
func shapeRate(sh Shape, periods int, frac float64) float64 {
	switch sh {
	case ShapeSteady:
		return 1
	case ShapeDiurnal:
		// 1 + 0.6 sin: swings 0.4x..1.6x, mean 1.
		return 1 + 0.6*math.Sin(2*math.Pi*float64(periods)*frac)
	case ShapeFlash:
		// A 10%-wide window mid-stream at 4x; baseline rescaled so the
		// mean stays 1 (0.9*b + 0.1*4b = 1 => b = 10/13).
		base := 10.0 / 13.0
		if frac >= 0.45 && frac < 0.55 {
			return 4 * base
		}
		return base
	case ShapeOnOff:
		// Square wave: active half-period at 1.75x, idle at 0.25x.
		phase := float64(periods) * frac
		if phase-math.Floor(phase) < 0.5 {
			return 1.75
		}
		return minRate
	}
	return 1
}

// stackNormPoints is the midpoint-rule resolution used to normalize a
// stacked pair of shapes. 1<<12 points resolve the narrowest feature in
// the closed-form profiles (the 10%-wide flash window) to ~0.02% error.
const stackNormPoints = 1 << 12

// stackKey identifies one stacked-shape combination for the norm cache.
type stackKey struct {
	s1, s2 Shape
	p2     int
}

// stackNorms caches the numerically computed mean of each stacked
// product, so RateAt stays cheap on the arrival hot path.
var stackNorms sync.Map // stackKey -> float64

// stackNorm returns the mean of shape1*shape2 over [0, 1), computed once
// per combination by the midpoint rule. Dividing the product by it pins
// the stacked stream's mean rate back at 1: each shape alone conserves
// load, but their product generally does not (the profiles correlate).
func stackNorm(k stackKey) float64 {
	if v, ok := stackNorms.Load(k); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := 0; i < stackNormPoints; i++ {
		frac := (float64(i) + 0.5) / stackNormPoints
		sum += shapeRate(k.s1, defaultPeriods(k.s1), frac) * shapeRate(k.s2, k.p2, frac)
	}
	norm := sum / stackNormPoints
	stackNorms.Store(k, norm)
	return norm
}

// RateAt returns the relative traffic intensity at fractional position
// frac in [0, 1) of the stream. The mean over the stream is ~1 — for a
// stacked pair the product is renormalized to keep it there — so a fleet
// run with a shaped workload carries the same total load as the steady
// baseline, redistributed in time.
func (s Spec) RateAt(frac float64) float64 {
	if frac < 0 {
		frac = 0
	} else if frac >= 1 {
		frac = math.Nextafter(1, 0)
	}
	r := shapeRate(s.Shape, defaultPeriods(s.Shape), frac)
	if s.Shape2 != ShapeSteady {
		r *= shapeRate(s.Shape2, s.periods2(), frac)
		r /= stackNorm(stackKey{s1: s.Shape, s2: s.Shape2, p2: s.periods2()})
	}
	return r
}

// intensityAt is the local multiplier applied to the adversarial and
// churn probabilities, so malformed traffic and flow floods concentrate
// where the shape concentrates load (a flash crowd is also when the
// attack traffic arrives).
func (s Spec) intensityAt(frac float64) float64 {
	r := s.RateAt(frac)
	if r < minRate {
		r = minRate
	}
	return r
}

// Apply returns a copy of tr with the spec's mutations applied: a
// deterministic function of (spec, trace, seed). The input trace is not
// modified; packet structs are copied shallowly and mutated packets get
// fresh Raw images, so payload bytes stay shared with the input. The
// identity spec returns tr itself.
func (s Spec) Apply(tr *packet.Trace, seed uint64) *packet.Trace {
	if s.IsZero() || len(tr.Packets) == 0 {
		return tr
	}
	adv := clamp01(s.Adversarial)
	churn := clamp01(s.Churn)
	if adv+churn > 1 {
		churn = 1 - adv
	}
	rng := fault.NewRNG(seed).Fork(0x10ad)
	out := &packet.Trace{Packets: make([]packet.Packet, len(tr.Packets))}
	copy(out.Packets, tr.Packets)
	n := len(out.Packets)
	churnSeq := uint32(0)
	for i := range out.Packets {
		frac := float64(i) / float64(n)
		scale := s.intensityAt(frac)
		u := rng.Float64()
		switch {
		case u < adv*scale:
			malform(&out.Packets[i], rng)
		case u < (adv+churn)*scale:
			churnSeq++
			churnRewrite(&out.Packets[i], churnSeq, rng)
		}
	}
	return out
}

// malform attaches a malformed raw wire image to p: either a truncated
// header or a field-fuzzed full image.
func malform(p *packet.Packet, rng *fault.RNG) {
	hdr := p.Header()
	if rng.Intn(2) == 0 {
		// Truncated header: fewer bytes on the wire than an IPv4 header.
		// make (not append) so k=0 still yields a non-nil empty image — a
		// zero-byte arrival, not a silent fallback to the canonical bytes.
		k := rng.Intn(packet.HeaderLen)
		p.Raw = make([]byte, k)
		copy(p.Raw, hdr[:k])
		return
	}
	// Field fuzz: full image with 1..4 corrupted header bytes. XOR with a
	// non-zero mask guarantees the image differs from the canonical one,
	// so the header checksum (or a field bound) must catch it.
	raw := make([]byte, packet.HeaderLen+len(p.Payload))
	copy(raw, hdr[:])
	copy(raw[packet.HeaderLen:], p.Payload)
	flips := 1 + rng.Intn(4)
	for f := 0; f < flips; f++ {
		off := rng.Intn(packet.HeaderLen)
		raw[off] ^= byte(1 + rng.Intn(255))
	}
	p.Raw = raw
}

// churnRewrite turns p into the first (and only) packet of a fresh flow:
// a new source drawn from a churn address block, with randomized ports.
// The packet stays well-formed — the pressure is on flow-table occupancy,
// not the parser.
func churnRewrite(p *packet.Packet, seq uint32, rng *fault.RNG) {
	p.Raw = nil
	p.Src = 0x0a000000 | (seq & 0x00ffffff) // 10.0.0.0/8 churn block
	p.SrcPort = uint16(1024 + rng.Intn(64512))
	p.DstPort = uint16(1 + rng.Intn(1024))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
