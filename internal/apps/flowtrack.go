package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// ftApp is a flow-state tracker: per-flow packet/byte accounting with a
// small state machine (new → established → heavy) driven entirely by the
// record contents, in the style of stateful data-plane abstractions
// (OpenState/FAST-style flow tables). Like the firewall it keeps all
// cross-packet state in a simmem.StateTable; unlike the firewall it
// touches the table on *every* well-formed packet, making it the denser
// stress of the integrity machinery.
//
//lint:checkpoint ResetScratch
type ftApp struct {
	//lint:ephemeral wiring fixed during Setup; flow state lives in the table
	st *simmem.StateTable
}

func init() { Register("flowtrack", func() App { return &ftApp{} }) }

// StateTable implements StatefulApp.
func (a *ftApp) StateTable() *simmem.StateTable { return a.st }

// ResetScratch implements ScratchResetter; all host-side fields are
// immutable after Setup.
func (a *ftApp) ResetScratch() {}

const (
	ftRecords  = 512 // power of two
	ftProbeMax = 8

	// Flow-record payload words.
	ftKey   = 0 // flow key, 0 = empty
	ftPkts  = 1
	ftBytes = 2
	ftState = 3
	ftTTLs  = 4 // min TTL << 8 | max TTL, a cheap path-change signal
	ftWords = 5

	// Flow states.
	ftStateNew   = 1
	ftStateEstab = 2
	ftStateHeavy = 3

	// A flow graduates to established after this many packets, and to
	// heavy beyond this many bytes.
	ftEstabPkts  = 3
	ftHeavyBytes = 4096
)

const (
	ftBlkHash = iota
	ftBlkProbe
	ftBlkUpdate
	ftBlkClass
)

// TraceConfig: a larger flow population with moderate payloads, so the
// table sees both locality (Zipf head) and occupancy pressure (tail).
func (a *ftApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 160, ZipfS: 1.1,
		PayloadMin: 40, PayloadMax: 512, Seed: seed,
	}
}

// ftHash mixes a flow key into a home slot.
func ftHash(key uint32) uint32 {
	h := key * 0xcc9e2d51
	h ^= h >> 15
	h *= 0x1b873593
	h ^= h >> 13
	return h & (ftRecords - 1)
}

func (a *ftApp) Setup(ctx *Context, tr *packet.Trace) error {
	st, err := simmem.NewStateTable(ctx.Space, ftRecords, ftWords)
	if err != nil {
		return err
	}
	a.st = st
	return st.Init(ctx.Mem)
}

func (a *ftApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	hdr, ok, err := parseHeader(ctx, p, buf)
	if err != nil {
		return err
	}
	if !ok {
		ctx.Rec.Observe("ft-state", 0)
		ctx.Rec.Observe("ft-flow", 0)
		return nil
	}
	key := hdr.flowKey()
	if err := ctx.Exec.Step(ftBlkHash, 8); err != nil {
		return err
	}

	h := ftHash(key)
	idx, found := int(h), false
	var pkts, bytes, state, ttls uint32
	for probe := uint32(0); probe < ftProbeMax; probe++ {
		if err := ctx.Exec.Step(ftBlkProbe, 6); err != nil {
			return err
		}
		i := int((h + probe) & (ftRecords - 1))
		rec, err := a.st.Lookup(ctx.Mem, i)
		if err != nil {
			return err
		}
		if rec[ftKey] == 0 {
			idx = i
			break
		}
		if rec[ftKey] == key {
			// Hit: the words just verified by Lookup are the transaction
			// inputs; copy them out before the scratch is reused.
			idx, found = i, true
			pkts, bytes, state, ttls = rec[ftPkts], rec[ftBytes], rec[ftState], rec[ftTTLs]
			break
		}
	}

	if err := ctx.Exec.Step(ftBlkUpdate, 14); err != nil {
		return err
	}
	if found {
		pkts++
		bytes += uint32(hdr.Wire)
		minTTL, maxTTL := (ttls>>8)&0xff, ttls&0xff
		if uint32(hdr.TTL) < minTTL {
			minTTL = uint32(hdr.TTL)
		}
		if uint32(hdr.TTL) > maxTTL {
			maxTTL = uint32(hdr.TTL)
		}
		ttls = minTTL<<8 | maxTTL
	} else {
		pkts, bytes = 1, uint32(hdr.Wire)
		state = ftStateNew
		ttls = uint32(hdr.TTL)<<8 | uint32(hdr.TTL)
	}
	// State machine: thresholds derived from the (verified) record only.
	if err := ctx.Exec.Step(ftBlkClass, 6); err != nil {
		return err
	}
	if state == ftStateNew && pkts >= ftEstabPkts {
		state = ftStateEstab
	}
	if state == ftStateEstab && bytes >= ftHeavyBytes {
		state = ftStateHeavy
	}
	if err := a.st.StoreField(ctx.Mem, idx, ftKey, key); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, idx, ftPkts, pkts); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, idx, ftBytes, bytes); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, idx, ftState, state); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, idx, ftTTLs, ttls); err != nil {
		return err
	}
	if err := a.st.Seal(ctx.Mem, idx); err != nil {
		return err
	}
	ctx.Rec.Observe("ft-state", uint64(state))
	ctx.Rec.Observe("ft-flow", uint64(key)<<16|uint64(pkts&0xffff))
	return nil
}
