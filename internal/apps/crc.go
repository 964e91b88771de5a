package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// crcApp implements the CRC-32 checksum benchmark. The control plane
// computes the 256-entry CRC lookup table into simulated memory; the data
// plane folds every packet byte through the table. The paper's two error
// structures are the crc table (nonvolatile — an error can affect many
// packets) and the per-packet accumulator (volatile).
type crcApp struct {
	table simmem.Addr // 256 x 32-bit table
}

func init() { Register("crc", func() App { return &crcApp{} }) }

// TraceConfig: streaming payloads; destinations are irrelevant to crc.
// Large payloads give crc its high instruction count and, because the
// packet buffers stream through the small L1, a low miss rate on the hot
// crc table with misses dominated by the streaming data (Table I: crc has
// the lowest miss rate, 1.2%).
func (a *crcApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 64, PayloadMin: 256, PayloadMax: 512, Seed: seed,
	}
}

// CRC-32 (IEEE 802.3) reflected polynomial.
const crcPoly = 0xedb88320

// Basic-block identifiers for instruction accounting.
const (
	crcBlkInit = iota
	crcBlkByte
	crcBlkFinish
)

func (a *crcApp) Setup(ctx *Context, tr *packet.Trace) error {
	tbl, err := ctx.Space.Alloc(256*4, 4)
	if err != nil {
		return err
	}
	a.table = tbl
	var digest uint32
	for i := uint32(0); i < 256; i++ {
		c := i
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = crcPoly ^ c>>1
			} else {
				c >>= 1
			}
			if err := ctx.Exec.Step(crcBlkInit, 4); err != nil {
				return err
			}
		}
		if err := ctx.Mem.Store32(tbl+simmem.Addr(i*4), c); err != nil {
			return err
		}
		digest ^= c
	}
	// The table digest is the control-plane observation: a fault during
	// table construction shows up as an initialization error.
	read := uint32(0)
	for i := uint32(0); i < 256; i++ {
		v, err := ctx.Mem.Load32(tbl + simmem.Addr(i*4))
		if err != nil {
			return err
		}
		read ^= v
		if err := ctx.Exec.Step(crcBlkInit, 2); err != nil {
			return err
		}
	}
	ctx.Rec.Observe("crc-table", uint64(read))
	_ = digest
	return nil
}

func (a *crcApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	n := packet.HeaderLen + len(p.Payload)
	crc := ^uint32(0)
	for i := 0; i < n; i++ {
		b, err := ctx.Mem.Load8(buf + simmem.Addr(i))
		if err != nil {
			return err
		}
		idx := (crc ^ uint32(b)) & 0xff
		e, err := ctx.Mem.Load32(a.table + simmem.Addr(idx*4))
		if err != nil {
			return err
		}
		crc = e ^ crc>>8
		if err := ctx.Exec.Step(crcBlkByte, 5); err != nil {
			return err
		}
	}
	if err := ctx.Exec.Step(crcBlkFinish, 2); err != nil {
		return err
	}
	// The per-packet accumulator value (Section 2).
	ctx.Rec.Observe("crc-accumulator", uint64(^crc))
	return nil
}
