package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// md5App computes the RFC 1321 message digest of every outgoing packet (the
// signature checked at the destination). The sine-constant table, the
// per-round shift amounts, and the running digest state all live in
// simulated memory; errors in MD5 are binary — any corrupted bit anywhere
// avalanches into a different digest (Section 2).
type md5App struct {
	k     simmem.Addr // 64 sine constants
	s     simmem.Addr // 64 shift amounts
	state simmem.Addr // 4-word digest state
}

func init() { Register("md5", func() App { return &md5App{} }) }

const (
	md5BlkInit = iota
	md5BlkPad
	md5BlkRound
	md5BlkFinish
)

// TraceConfig: large payloads; md5 is compute-bound with a hot constants
// table, giving it the paper's high instruction count per packet.
func (a *md5App) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 64, PayloadMin: 200, PayloadMax: 600, Seed: seed,
	}
}

// md5K holds floor(2^32 * abs(sin(i+1))) for i in 0..63 (RFC 1321).
var md5K = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
	0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
	0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
	0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
	0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
	0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

// md5S holds the per-operation left-rotation amounts.
var md5S = [64]uint32{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

func (a *md5App) Setup(ctx *Context, tr *packet.Trace) error {
	var err error
	a.k, err = ctx.Space.Alloc(64*4, 4)
	if err != nil {
		return err
	}
	a.s, err = ctx.Space.Alloc(64*4, 4)
	if err != nil {
		return err
	}
	a.state, err = ctx.Space.Alloc(4*4, 4)
	if err != nil {
		return err
	}
	var digest uint64
	for i := 0; i < 64; i++ {
		if err := ctx.Mem.Store32(a.k+simmem.Addr(i*4), md5K[i]); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.s+simmem.Addr(i*4), md5S[i]); err != nil {
			return err
		}
		if err := ctx.Exec.Step(md5BlkInit, 4); err != nil {
			return err
		}
	}
	// Control-plane observation: read back the constant tables.
	for i := 0; i < 64; i++ {
		k, err := ctx.Mem.Load32(a.k + simmem.Addr(i*4))
		if err != nil {
			return err
		}
		s, err := ctx.Mem.Load32(a.s + simmem.Addr(i*4))
		if err != nil {
			return err
		}
		digest += uint64(k) ^ uint64(s)<<32
	}
	ctx.Rec.Observe("md5-tables", digest)
	return nil
}

func rotl(x uint32, s uint32) uint32 { return x<<(s&31) | x>>((32-s)&31) }

func (a *md5App) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// Initialise the digest state in memory.
	init := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	for i, v := range init {
		if err := ctx.Mem.Store32(a.state+simmem.Addr(i*4), v); err != nil {
			return err
		}
	}
	if err := ctx.Exec.Step(md5BlkInit, 6); err != nil {
		return err
	}

	msgLen := packet.HeaderLen + len(p.Payload)
	// Padded length: message + 1 byte 0x80 + zeros + 8-byte length, to a
	// multiple of 64.
	padded := (msgLen + 8 + 64) &^ 63

	var block [16]uint32
	for base := 0; base < padded; base += 64 {
		// Assemble one 512-bit block from the packet bytes in memory,
		// applying RFC 1321 padding on the fly.
		for w := 0; w < 16; w++ {
			var v uint32
			for byteI := 0; byteI < 4; byteI++ {
				idx := base + w*4 + byteI
				var bb byte
				switch {
				case idx < msgLen:
					var err error
					bb, err = ctx.Mem.Load8(buf + simmem.Addr(idx))
					if err != nil {
						return err
					}
				case idx == msgLen:
					bb = 0x80
				case idx >= padded-8:
					shift := uint(idx-(padded-8)) * 8
					bb = byte(uint64(msgLen*8) >> shift)
				}
				v |= uint32(bb) << uint(8*byteI)
			}
			block[w] = v
			if err := ctx.Exec.Step(md5BlkPad, 6); err != nil {
				return err
			}
		}

		// Load the chaining state.
		var st [4]uint32
		for i := range st {
			v, err := ctx.Mem.Load32(a.state + simmem.Addr(i*4))
			if err != nil {
				return err
			}
			st[i] = v
		}
		aa, bbv, cc, dd := st[0], st[1], st[2], st[3]
		for i := 0; i < 64; i++ {
			var f uint32
			var g int
			switch {
			case i < 16:
				f = bbv&cc | ^bbv&dd
				g = i
			case i < 32:
				f = dd&bbv | ^dd&cc
				g = (5*i + 1) & 15
			case i < 48:
				f = bbv ^ cc ^ dd
				g = (3*i + 5) & 15
			default:
				f = cc ^ (bbv | ^dd)
				g = (7 * i) & 15
			}
			k, err := ctx.Mem.Load32(a.k + simmem.Addr(i*4))
			if err != nil {
				return err
			}
			s, err := ctx.Mem.Load32(a.s + simmem.Addr(i*4))
			if err != nil {
				return err
			}
			f += aa + k + block[g]
			aa = dd
			dd = cc
			cc = bbv
			bbv += rotl(f, s)
			if err := ctx.Exec.Step(md5BlkRound, 9); err != nil {
				return err
			}
		}
		st[0] += aa
		st[1] += bbv
		st[2] += cc
		st[3] += dd
		for i, v := range st {
			if err := ctx.Mem.Store32(a.state+simmem.Addr(i*4), v); err != nil {
				return err
			}
		}
		if err := ctx.Exec.Step(md5BlkFinish, 8); err != nil {
			return err
		}
	}

	// Observe the final digest words: the per-packet signature.
	for i := 0; i < 4; i++ {
		v, err := ctx.Mem.Load32(a.state + simmem.Addr(i*4))
		if err != nil {
			return err
		}
		ctx.Rec.Observe("md5-digest", uint64(v))
	}
	return nil
}
