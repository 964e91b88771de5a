package packet

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"clumsy/internal/fault"
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Fatal("odd-length checksum mishandled")
	}
}

func TestHeaderChecksumValidates(t *testing.T) {
	p := Packet{Src: 0x0a000001, Dst: 0xc0a80101, TTL: 64, Proto: ProtoTCP, Payload: make([]byte, 100)}
	h := p.Header()
	// Re-summing the header including its checksum yields zero complement.
	var sum uint32
	for i := 0; i < len(h); i += 2 {
		sum += uint32(h[i])<<8 | uint32(h[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Fatalf("header does not verify: sum = %#x", sum)
	}
	if h[8] != 64 || h[9] != ProtoTCP {
		t.Fatal("TTL/protocol fields misplaced")
	}
	if int(h[2])<<8|int(h[3]) != HeaderLen+100 {
		t.Fatal("total length field wrong")
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: 0xc0a80000, Len: 16} // 192.168/16
	if 0xc0a81234&p.Mask() != p.Addr {
		t.Fatal("address inside prefix rejected")
	}
	if 0xc0a90000&p.Mask() == p.Addr {
		t.Fatal("address outside prefix accepted")
	}
	if p.String() != "192.168.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPrefixMaskProperty(t *testing.T) {
	f := func(raw uint32, lnRaw uint8) bool {
		ln := 8 + int(lnRaw)%23 // 8..30
		p := Prefix{Addr: raw, Len: ln}
		m := p.Mask()
		// Mask has exactly ln leading ones.
		ones := 0
		for i := 31; i >= 0 && m&(1<<uint(i)) != 0; i-- {
			ones++
		}
		return ones == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratePrefixesDistinct(t *testing.T) {
	rng := fault.NewRNG(1)
	ps := GeneratePrefixes(200, rng)
	if len(ps) != 200 {
		t.Fatalf("got %d prefixes", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Len < 8 || p.Len > 24 {
			t.Fatalf("prefix length %d out of range", p.Len)
		}
		if p.Addr&^p.Mask() != 0 {
			t.Fatalf("prefix %v has host bits set", p)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate prefix %v", p)
		}
		seen[p.String()] = true
	}
}

func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{Packets: 500, Flows: 40, PayloadMin: 40, PayloadMax: 200, Seed: 7}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("lengths differ")
	}
	for i := range a.Packets {
		if a.Packets[i].Src != b.Packets[i].Src || !bytes.Equal(a.Packets[i].Payload, b.Packets[i].Payload) {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
	c := MustGenerate(TraceConfig{Packets: 500, Flows: 40, PayloadMin: 40, PayloadMax: 200, Seed: 8})
	same := 0
	for i := range a.Packets {
		if a.Packets[i].Src == c.Packets[i].Src {
			same++
		}
	}
	if same == len(a.Packets) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceFlowLocality(t *testing.T) {
	// Zipf skew: the most popular flow should carry far more than 1/Flows
	// of the traffic.
	tr := MustGenerate(TraceConfig{Packets: 5000, Flows: 100, PayloadMin: 64, PayloadMax: 64, Seed: 3})
	counts := map[uint32]int{}
	for _, p := range tr.Packets {
		counts[p.Src]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*len(tr.Packets)/100 {
		t.Fatalf("top flow carries %d of %d packets; expected heavy skew", max, len(tr.Packets))
	}
}

func TestTraceHTTPPayloads(t *testing.T) {
	tr := MustGenerate(TraceConfig{Packets: 1000, Flows: 50, PayloadMin: 64, PayloadMax: 64,
		HTTPFraction: 1.0, Seed: 5})
	for i, p := range tr.Packets {
		if !strings.HasPrefix(string(p.Payload), "GET /") {
			t.Fatalf("packet %d payload %q is not an HTTP GET", i, p.Payload[:16])
		}
		if p.DstPort != 80 || p.Proto != ProtoTCP {
			t.Fatalf("HTTP packet %d has port %d proto %d", i, p.DstPort, p.Proto)
		}
		if len(p.Payload) < 64 {
			t.Fatalf("payload padded to %d, want >= 64", len(p.Payload))
		}
	}
}

func TestTraceDestinationsInPrefixes(t *testing.T) {
	rng := fault.NewRNG(2)
	prefixes := GeneratePrefixes(32, rng)
	tr := MustGenerate(TraceConfig{Packets: 800, Flows: 60, PayloadMin: 40, PayloadMax: 40,
		Prefixes: prefixes, Seed: 11})
	for i, p := range tr.Packets {
		found := false
		for _, pf := range prefixes {
			if p.Dst&pf.Mask() == pf.Addr&pf.Mask() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("packet %d destination %#x outside every prefix", i, p.Dst)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	bad := []TraceConfig{
		{},
		{Packets: 10},                           // no flows
		{Packets: 10, Flows: 5, PayloadMin: -1}, // bad payload
		{Packets: 10, Flows: 5, PayloadMin: 100, PayloadMax: 50},
		{Packets: 10, Flows: 5, HTTPFraction: 2},
		{Packets: 10, Flows: 5, ZipfS: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

func TestTraceTTLRange(t *testing.T) {
	tr := MustGenerate(TraceConfig{Packets: 300, Flows: 10, PayloadMin: 40, PayloadMax: 40, Seed: 1})
	for _, p := range tr.Packets {
		if p.TTL < 32 {
			t.Fatalf("TTL %d below minimum", p.TTL)
		}
	}
}
