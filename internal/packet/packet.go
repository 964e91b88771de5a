// Package packet generates the synthetic traffic that drives the NetBench
// applications. The paper used packet traces with the original benchmark
// inputs; this reproduction substitutes seeded generators that produce the
// same signals the applications are sensitive to — IPv4 header fields, flow
// locality (a Zipf-distributed flow population), routable destination
// prefixes, and payload bytes (including HTTP GET requests for URL
// switching).
package packet

import (
	"fmt"
	"math"

	"clumsy/internal/fault"
)

// Protocol numbers used by the generator.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Packet is one IPv4 packet as seen by the applications.
type Packet struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Proto            uint8
	TTL              uint8
	Payload          []byte

	// Raw, when non-nil, is the exact wire image DMA'd into simulated
	// memory in place of the canonical Header()+Payload serialisation —
	// the carrier for workload-v2's malformed packets (truncated or
	// field-fuzzed headers). The metadata fields above still describe the
	// packet the image was derived from; applications must parse the
	// bytes defensively rather than trust them.
	Raw []byte
}

// HeaderLen is the length of the serialised IPv4 header (no options).
const HeaderLen = 20

// WireLen is the number of bytes the packet occupies on the wire: the
// raw image length when one is attached, the canonical header plus
// payload otherwise. This is NIC descriptor metadata — applications may
// trust it even for malformed packets, because the DMA engine knows how
// many bytes it copied.
func (p *Packet) WireLen() int {
	if p.Raw != nil {
		return len(p.Raw)
	}
	return HeaderLen + len(p.Payload)
}

// Header serialises the 20-byte IPv4 header with a correct checksum.
func (p *Packet) Header() [HeaderLen]byte {
	var h [HeaderLen]byte
	total := HeaderLen + len(p.Payload)
	h[0] = 0x45 // version 4, IHL 5
	h[2] = byte(total >> 8)
	h[3] = byte(total)
	h[8] = p.TTL
	h[9] = p.Proto
	h[12] = byte(p.Src >> 24)
	h[13] = byte(p.Src >> 16)
	h[14] = byte(p.Src >> 8)
	h[15] = byte(p.Src)
	h[16] = byte(p.Dst >> 24)
	h[17] = byte(p.Dst >> 16)
	h[18] = byte(p.Dst >> 8)
	h[19] = byte(p.Dst)
	sum := Checksum(h[:])
	h[10] = byte(sum >> 8)
	h[11] = byte(sum)
	return h
}

// Checksum computes the Internet checksum (RFC 1071) of b, assuming the
// checksum field itself is zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Prefix is a routable destination prefix.
type Prefix struct {
	Addr uint32
	Len  int // prefix length in bits, 8..30
}

func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", p.Addr>>24, p.Addr>>16&0xff, p.Addr>>8&0xff, p.Addr&0xff, p.Len)
}

// Mask returns the network mask of the prefix.
func (p Prefix) Mask() uint32 {
	if p.Len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(p.Len))
}

// GeneratePrefixes produces n distinct prefixes with lengths spread over
// 8..24 bits, suitable for populating a routing table.
func GeneratePrefixes(n int, rng *fault.RNG) []Prefix {
	if n <= 0 {
		panic("packet: non-positive prefix count")
	}
	seen := make(map[uint64]bool, n)
	out := make([]Prefix, 0, n)
	for len(out) < n {
		ln := 8 + rng.Intn(17) // 8..24
		addr := rng.Uint32() & (^uint32(0) << (32 - uint(ln)))
		key := uint64(addr)<<8 | uint64(ln)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Prefix{Addr: addr, Len: ln})
	}
	return out
}

// zipf samples from a Zipf distribution over [0, n) with skew s, using a
// precomputed CDF (the flow populations are small enough that this is
// cheap and exact).
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(rng *fault.RNG) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
