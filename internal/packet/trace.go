package packet

import (
	"errors"
	"fmt"

	"clumsy/internal/fault"
)

// TraceConfig describes a synthetic workload.
type TraceConfig struct {
	Packets int     // number of packets to generate
	Flows   int     // active flow population
	ZipfS   float64 // flow popularity skew (1.0 ~ typical internet mix)

	PayloadMin, PayloadMax int // payload size range in bytes

	// HTTPFraction of packets carry an HTTP GET request as payload (used
	// by the url application; others ignore payload semantics).
	HTTPFraction float64

	// Prefixes are the routable destination prefixes; flow destinations
	// are drawn from them so that lookups resolve. When empty, destinations
	// are uniformly random.
	Prefixes []Prefix

	Seed uint64
}

// Validate reports configuration problems.
func (c TraceConfig) Validate() error {
	switch {
	case c.Packets <= 0:
		return errors.New("packet: non-positive packet count")
	case c.Flows <= 0:
		return errors.New("packet: non-positive flow count")
	case c.PayloadMin < 0 || c.PayloadMax < c.PayloadMin:
		return errors.New("packet: bad payload size range")
	case c.HTTPFraction < 0 || c.HTTPFraction > 1:
		return errors.New("packet: HTTP fraction out of [0,1]")
	case c.ZipfS < 0:
		return errors.New("packet: negative Zipf skew")
	}
	return nil
}

// DefaultURLPaths is the path population for URL-switching workloads.
var DefaultURLPaths = []string{
	"/index.html", "/images/logo.gif", "/cgi-bin/query", "/news/today",
	"/static/app.js", "/api/v1/items", "/video/stream", "/download/file.bin",
	"/sports/scores", "/weather/map",
}

// flow is one generated five-tuple with a fixed payload style.
type flow struct {
	src, dst         uint32
	srcPort, dstPort uint16
	proto            uint8
	http             bool
	urlIdx           int
}

// Trace is a reproducible packet sequence.
type Trace struct {
	Packets []Packet
}

// Generate builds the trace deterministically from the seed.
func Generate(cfg TraceConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := fault.NewRNG(cfg.Seed).Fork(0x7ace)
	s := cfg.ZipfS
	if s == 0 {
		s = 1.0
	}

	flows := make([]flow, cfg.Flows)
	for i := range flows {
		f := flow{
			src:     rng.Uint32(),
			srcPort: uint16(1024 + rng.Intn(60000)),
			proto:   ProtoUDP,
		}
		if len(cfg.Prefixes) > 0 {
			p := cfg.Prefixes[rng.Intn(len(cfg.Prefixes))]
			f.dst = p.Addr&p.Mask() | rng.Uint32()&^p.Mask()
		} else {
			f.dst = rng.Uint32()
		}
		if rng.Float64() < cfg.HTTPFraction {
			f.http = true
			f.proto = ProtoTCP
			f.dstPort = 80
			f.urlIdx = rng.Intn(len(DefaultURLPaths))
		} else {
			f.dstPort = uint16(rng.Intn(1024))
		}
		flows[i] = f
	}

	z := newZipf(cfg.Flows, s)
	tr := &Trace{Packets: make([]Packet, cfg.Packets)}
	for i := 0; i < cfg.Packets; i++ {
		f := flows[z.sample(rng)]
		size := cfg.PayloadMin
		if cfg.PayloadMax > cfg.PayloadMin {
			size += rng.Intn(cfg.PayloadMax - cfg.PayloadMin + 1)
		}
		var payload []byte
		if f.http {
			payload = []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nHost: sw%d.example\r\n\r\n",
				DefaultURLPaths[f.urlIdx], f.dst&0xff))
			for len(payload) < size {
				payload = append(payload, byte('a'+len(payload)%26))
			}
		} else {
			payload = make([]byte, size)
			for j := range payload {
				payload[j] = byte(rng.Uint32())
			}
		}
		tr.Packets[i] = Packet{
			Src:     f.src,
			Dst:     f.dst,
			SrcPort: f.srcPort,
			DstPort: f.dstPort,
			Proto:   f.proto,
			TTL:     uint8(32 + rng.Intn(96)),
			Payload: payload,
		}
	}
	return tr, nil
}

// MustGenerate is Generate for static configurations.
func MustGenerate(cfg TraceConfig) *Trace {
	tr, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}
