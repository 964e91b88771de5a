package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// adpcmApp is an extension workload beyond the paper's NetBench seven: an
// IMA ADPCM speech encoder, the classic MediaBench kernel. The paper notes
// its ideas "can be applied to any type of processor that executes
// applications with fault resiliency (e.g., media processors)"; this
// workload makes that claim testable. The encoder's step-size and index
// tables and its predictor state live in simulated memory; a corrupted
// table entry turns into audible noise (a silent, value-level error), and
// the codec clamps its index like real implementations do, so corruption
// degrades quality rather than crashing.
type adpcmApp struct {
	stepTable  simmem.Addr // 89 x 32-bit step sizes
	indexTable simmem.Addr // 16 x 32-bit index deltas
	state      simmem.Addr // predictor (word 0), index (word 1)
}

func init() { Register("adpcm", func() App { return &adpcmApp{} }) }

const (
	adpcmBlkInit = iota
	adpcmBlkSample
	adpcmBlkFinish
)

// TraceConfig: voice-like frames, 160 samples (320 bytes) per packet as in
// 20 ms G.711 framing.
func (a *adpcmApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 32, PayloadMin: 320, PayloadMax: 320, Seed: seed,
	}
}

// imaStepTable is the 89-entry IMA ADPCM step-size table.
var imaStepTable = [89]uint32{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
	41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
	190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
	724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484,
	7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
	18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// imaIndexTable is the 16-entry index adjustment table.
var imaIndexTable = [16]int32{
	-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8,
}

func (a *adpcmApp) Setup(ctx *Context, tr *packet.Trace) error {
	var err error
	a.stepTable, err = ctx.Space.Alloc(len(imaStepTable)*4, 4)
	if err != nil {
		return err
	}
	a.indexTable, err = ctx.Space.Alloc(len(imaIndexTable)*4, 4)
	if err != nil {
		return err
	}
	a.state, err = ctx.Space.Alloc(8, 4)
	if err != nil {
		return err
	}
	var digest uint64
	for i, v := range imaStepTable {
		if err := ctx.Mem.Store32(a.stepTable+simmem.Addr(i*4), v); err != nil {
			return err
		}
		digest += uint64(v)
		if err := ctx.Exec.Step(adpcmBlkInit, 2); err != nil {
			return err
		}
	}
	for i, v := range imaIndexTable {
		if err := ctx.Mem.Store32(a.indexTable+simmem.Addr(i*4), uint32(v)); err != nil {
			return err
		}
		digest ^= uint64(uint32(v)) << (i & 31)
	}
	ctx.Rec.Observe("adpcm-tables", digest)
	return nil
}

func clamp32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (a *adpcmApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// Reset the codec per packet (packet loss must not desynchronise the
	// stream — standard practice for ADPCM over RTP).
	if err := ctx.Mem.Store32(a.state, 0); err != nil {
		return err
	}
	if err := ctx.Mem.Store32(a.state+4, 0); err != nil {
		return err
	}
	if err := ctx.Exec.Step(adpcmBlkInit, 4); err != nil {
		return err
	}

	payload := buf + packet.HeaderLen
	samples := len(p.Payload) / 2
	var outDigest uint64
	for s := 0; s < samples; s++ {
		lo, err := ctx.Mem.Load8(payload + simmem.Addr(2*s))
		if err != nil {
			return err
		}
		hi, err := ctx.Mem.Load8(payload + simmem.Addr(2*s+1))
		if err != nil {
			return err
		}
		sample := int32(int16(uint16(lo) | uint16(hi)<<8))

		predRaw, err := ctx.Mem.Load32(a.state)
		if err != nil {
			return err
		}
		idxRaw, err := ctx.Mem.Load32(a.state + 4)
		if err != nil {
			return err
		}
		pred := int32(predRaw)
		// The index is clamped on every use: a corrupted stored index
		// degrades the encoding but cannot escape the table.
		idx := clamp32(int32(idxRaw), 0, int32(len(imaStepTable)-1))
		step, err := ctx.Mem.Load32(a.stepTable + simmem.Addr(idx*4))
		if err != nil {
			return err
		}

		diff := sample - pred
		var code uint32
		if diff < 0 {
			code = 8
			diff = -diff
		}
		st := int32(step)
		var delta int32
		if diff >= st {
			code |= 4
			diff -= st
			delta += st
		}
		if diff >= st/2 {
			code |= 2
			diff -= st / 2
			delta += st / 2
		}
		if diff >= st/4 {
			code |= 1
			delta += st / 4
		}
		delta += st / 8
		if code&8 != 0 {
			delta = -delta
		}
		pred = clamp32(pred+delta, -32768, 32767)

		adjRaw, err := ctx.Mem.Load32(a.indexTable + simmem.Addr((code&15)*4))
		if err != nil {
			return err
		}
		idx = clamp32(idx+int32(adjRaw), 0, int32(len(imaStepTable)-1))

		if err := ctx.Mem.Store32(a.state, uint32(pred)); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.state+4, uint32(idx)); err != nil {
			return err
		}
		outDigest = outDigest*31 + uint64(code&15)
		if err := ctx.Exec.Step(adpcmBlkSample, 14); err != nil {
			return err
		}
	}
	// The encoded nibble stream and the final predictor are the observed
	// values: any corrupted table entry or state word changes them.
	ctx.Rec.Observe("adpcm-stream", outDigest)
	final, err := ctx.Mem.Load32(a.state)
	if err != nil {
		return err
	}
	ctx.Rec.Observe("adpcm-predictor", uint64(final))
	return ctx.Exec.Step(adpcmBlkFinish, 3)
}
