package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// fwApp is a stateful firewall/ACL: the first packet of a flow walks an
// ordered rule list (first match wins) and, when admitted, installs a
// connection-tracking record in a simmem.StateTable; subsequent packets
// of an established flow short-circuit the ACL on a table hit. The
// connection table is cross-packet state a contained drop cannot fully
// recover — exactly the structure the state-integrity machinery
// (checksums, scrub, recovery ladder) exists to protect.
//
// All inter-packet state lives in the simulated space and the table's
// shadow (which the processor commits/rolls back at packet boundaries);
// the Go fields below are wiring fixed during Setup, so ResetScratch has
// nothing to discard.
//
//lint:checkpoint ResetScratch
type fwApp struct {
	//lint:ephemeral wiring fixed during Setup; flow state lives in the table
	st *simmem.StateTable
	//lint:ephemeral layout constant fixed during Setup
	rules simmem.Addr
	//lint:ephemeral layout constant fixed during Setup
	ruleCount uint32
}

func init() { Register("fw", func() App { return &fwApp{} }) }

// StateTable implements StatefulApp.
func (a *fwApp) StateTable() *simmem.StateTable { return a.st }

// ResetScratch implements ScratchResetter; every Go field is immutable
// after Setup, so containment has nothing host-side to unwind.
func (a *fwApp) ResetScratch() {}

const (
	fwRuleCount = 64
	fwRecords   = 256 // power of two
	fwProbeMax  = 8

	// Connection-record payload words.
	fwKey   = 0 // flow key, 0 = empty
	fwPkts  = 1
	fwBytes = 2
	fwTTL   = 3
	fwVerd  = 4
	fwWords = 5

	// Rule layout (words): dst address, dst mask, action (1 = allow).
	fwRuleWords = 3

	fwVerdictMalformed = 0
	fwVerdictDeny      = 1
	fwVerdictAllow     = 2
	fwVerdictEstab     = 3
)

const (
	fwBlkHash = iota
	fwBlkProbe
	fwBlkACL
	fwBlkUpdate
)

// TraceConfig: destinations drawn from the canonical prefix population so
// the ACL rules partition real traffic.
func (a *fwApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 96, PayloadMin: 40, PayloadMax: 160,
		Prefixes: routingPrefixes(fwRuleCount), Seed: seed,
	}
}

// fwHash mixes a flow key into a home slot.
func fwHash(key uint32) uint32 {
	h := key
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return h & (fwRecords - 1)
}

func (a *fwApp) Setup(ctx *Context, tr *packet.Trace) error {
	// Rule list: one rule per canonical prefix, every third one a deny.
	prefixes := routingPrefixes(fwRuleCount)
	a.ruleCount = fwRuleCount
	rules, err := ctx.Space.Alloc(fwRuleCount*fwRuleWords*4, 8)
	if err != nil {
		return err
	}
	a.rules = rules
	var digest uint64
	for i, p := range prefixes {
		if err := ctx.Exec.Step(fwBlkACL, 9); err != nil {
			return err
		}
		action := uint32(fwVerdictAllow)
		if i%3 == 0 {
			action = fwVerdictDeny
		}
		base := rules + simmem.Addr(i*fwRuleWords*4)
		if err := ctx.Mem.Store32(base, p.Addr&p.Mask()); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(base+4, p.Mask()); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(base+8, action); err != nil {
			return err
		}
		digest ^= uint64(p.Addr&p.Mask()) + uint64(action)<<32
	}
	ctx.Rec.Observe("fw-rules", digest)

	// Connection table: empty at start of day; the data plane populates
	// it, which is what makes its state unrecoverable by rollback alone.
	st, err := simmem.NewStateTable(ctx.Space, fwRecords, fwWords)
	if err != nil {
		return err
	}
	a.st = st
	return st.Init(ctx.Mem)
}

// acl walks the rule list in order and returns the verdict for dst.
func (a *fwApp) acl(ctx *Context, dst uint32) (uint32, error) {
	for i := uint32(0); i < a.ruleCount; i++ {
		if err := ctx.Exec.Step(fwBlkACL, 5); err != nil {
			return 0, err
		}
		base := a.rules + simmem.Addr(i*fwRuleWords*4)
		addr, err := ctx.Mem.Load32(base)
		if err != nil {
			return 0, err
		}
		mask, err := ctx.Mem.Load32(base + 4)
		if err != nil {
			return 0, err
		}
		if dst&mask != addr {
			continue
		}
		action, err := ctx.Mem.Load32(base + 8)
		if err != nil {
			return 0, err
		}
		// A corrupted action word must not invent a verdict the rule
		// compiler never wrote.
		if action != fwVerdictAllow && action != fwVerdictDeny {
			return fwVerdictDeny, nil
		}
		return action, nil
	}
	// Default allow: the deny rules carve exceptions out of open traffic.
	return fwVerdictAllow, nil
}

func (a *fwApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	hdr, ok, err := parseHeader(ctx, p, buf)
	if err != nil {
		return err
	}
	if !ok {
		ctx.Rec.Observe("fw-verdict", fwVerdictMalformed)
		ctx.Rec.Observe("fw-flow", 0)
		return nil
	}
	key := hdr.flowKey()
	if err := ctx.Exec.Step(fwBlkHash, 8); err != nil {
		return err
	}

	// Connection-track lookup: verified reads through the state table.
	h := fwHash(key)
	slot := -1 // first empty slot seen, the insertion point
	for probe := uint32(0); probe < fwProbeMax; probe++ {
		if err := ctx.Exec.Step(fwBlkProbe, 6); err != nil {
			return err
		}
		idx := int((h + probe) & (fwRecords - 1))
		rec, err := a.st.Lookup(ctx.Mem, idx)
		if err != nil {
			return err
		}
		if rec[fwKey] == 0 {
			slot = idx
			break
		}
		if rec[fwKey] == key {
			// Established flow: refresh the record, skip the ACL.
			if err := ctx.Exec.Step(fwBlkUpdate, 10); err != nil {
				return err
			}
			pkts := rec[fwPkts] + 1
			bytes := rec[fwBytes] + uint32(hdr.Wire)
			if err := a.st.StoreField(ctx.Mem, idx, fwPkts, pkts); err != nil {
				return err
			}
			if err := a.st.StoreField(ctx.Mem, idx, fwBytes, bytes); err != nil {
				return err
			}
			if err := a.st.StoreField(ctx.Mem, idx, fwTTL, uint32(hdr.TTL)); err != nil {
				return err
			}
			if err := a.st.Seal(ctx.Mem, idx); err != nil {
				return err
			}
			ctx.Rec.Observe("fw-verdict", fwVerdictEstab)
			ctx.Rec.Observe("fw-flow", uint64(key)<<8|uint64(pkts&0xff))
			return nil
		}
	}

	// New flow: consult the ACL.
	verdict, err := a.acl(ctx, hdr.Dst)
	if err != nil {
		return err
	}
	ctx.Rec.Observe("fw-verdict", uint64(verdict))
	if verdict != fwVerdictAllow {
		ctx.Rec.Observe("fw-flow", 0)
		return nil
	}
	// Install the connection record; under table pressure the home slot
	// is overwritten (the real firewall would evict by LRU).
	if slot < 0 {
		slot = int(h)
	}
	if err := ctx.Exec.Step(fwBlkUpdate, 12); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, slot, fwKey, key); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, slot, fwPkts, 1); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, slot, fwBytes, uint32(hdr.Wire)); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, slot, fwTTL, uint32(hdr.TTL)); err != nil {
		return err
	}
	if err := a.st.StoreField(ctx.Mem, slot, fwVerd, verdict); err != nil {
		return err
	}
	if err := a.st.Seal(ctx.Mem, slot); err != nil {
		return err
	}
	ctx.Rec.Observe("fw-flow", uint64(key)<<8|1)
	return nil
}
