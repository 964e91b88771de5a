package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
)

// natApp implements network address translation on a router connecting a
// private network to the public internet: the source address of every
// outgoing packet is rewritten from a NAT table (an open-addressing hash
// table in simulated memory), and the packet is then routed. The observed
// values follow Figure 7: the initial source address, the interface value,
// the destination address, the traversed radix-tree entries, and the
// translated source address; the NAT table entries are the control-plane
// structure.
type natApp struct {
	table *radix.Table
	nat   simmem.Addr // hash table of translation entries
}

func init() { Register("nat", func() App { return &natApp{} }) }

func (a *natApp) Name() string { return "nat" }

const (
	natPrefixes = 250
	natBuckets  = 512 // power of two
	natProbeMax = 16

	// Entry layout (words): private address (0 = empty), public address,
	// interface.
	natPriv   = 0
	natPub    = 4
	natIfc    = 8
	natEntLen = 12
)

const (
	natBlkHash = iota
	natBlkProbe
	natBlkRewrite
	natBlkNode
)

// TraceConfig: sources from a private /8 so every packet needs translation.
func (a *natApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 96, PayloadMin: 40, PayloadMax: 160,
		Prefixes: routingPrefixes(natPrefixes), Seed: seed,
	}
}

// natHash mixes an address into a bucket index.
func natHash(addr uint32) uint32 {
	h := addr
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	return h & (natBuckets - 1)
}

func (a *natApp) Setup(ctx *Context, tr *packet.Trace) error {
	tab, err := radix.New(ctx.Space, ctx.Mem)
	if err != nil {
		return err
	}
	a.table = tab
	prefixes := routingPrefixes(natPrefixes)
	for i, p := range prefixes {
		if err := ctx.Exec.Step(natBlkHash, 14); err != nil {
			return err
		}
		if err := tab.Insert(ctx.Mem, p, uint32(i+1), uint32(i%8)); err != nil {
			return err
		}
	}

	a.nat, err = ctx.Space.Alloc(natBuckets*natEntLen, 8)
	if err != nil {
		return err
	}
	for b := uint32(0); b < natBuckets; b++ {
		base := a.nat + simmem.Addr(b*natEntLen)
		for off := simmem.Addr(0); off < natEntLen; off += 4 {
			if err := ctx.Mem.Store32(base+off, 0); err != nil {
				return err
			}
		}
	}

	// Populate translations for every source seen in the trace: the NAT
	// table is the control-plane structure of Figure 7.
	var digest uint64
	seen := map[uint32]bool{}
	for _, p := range tr.Packets {
		if seen[p.Src] {
			continue
		}
		seen[p.Src] = true
		pub := 0x05000000 | p.Src&0x00ffffff // public pool 5.0.0.0/8
		ifc := p.Src % 8
		if err := a.insert(ctx, p.Src, pub, ifc); err != nil {
			return err
		}
		digest ^= uint64(pub) + uint64(ifc)<<32
		if err := ctx.Exec.Step(natBlkProbe, 10); err != nil {
			return err
		}
	}
	ctx.Rec.Observe("nat-table", digest)
	return nil
}

func (a *natApp) insert(ctx *Context, priv, pub, ifc uint32) error {
	h := natHash(priv)
	for probe := uint32(0); probe < natProbeMax; probe++ {
		base := a.nat + simmem.Addr(((h+probe)&(natBuckets-1))*natEntLen)
		cur, err := ctx.Mem.Load32(base + natPriv)
		if err != nil {
			return err
		}
		if cur == 0 || cur == priv {
			if err := ctx.Mem.Store32(base+natPriv, priv); err != nil {
				return err
			}
			if err := ctx.Mem.Store32(base+natPub, pub); err != nil {
				return err
			}
			return ctx.Mem.Store32(base+natIfc, ifc)
		}
	}
	// Table pressure: overwrite the home slot (the real NAT would evict
	// by LRU; the distinction does not matter to the error study).
	base := a.nat + simmem.Addr(h*natEntLen)
	if err := ctx.Mem.Store32(base+natPriv, priv); err != nil {
		return err
	}
	if err := ctx.Mem.Store32(base+natPub, pub); err != nil {
		return err
	}
	return ctx.Mem.Store32(base+natIfc, ifc)
}

func (a *natApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// Read the source address from the header.
	src, err := loadHeaderWord32(ctx, buf, 12)
	if err != nil {
		return err
	}
	ctx.Rec.Observe("initial-src", uint64(src))
	if err := ctx.Exec.Step(natBlkHash, 8); err != nil {
		return err
	}

	// Probe the NAT table.
	var pub, ifc uint32
	found := false
	h := natHash(src)
	for probe := uint32(0); probe < natProbeMax; probe++ {
		if err := ctx.Exec.Step(natBlkProbe, 6); err != nil {
			return err
		}
		base := a.nat + simmem.Addr(((h+probe)&(natBuckets-1))*natEntLen)
		cur, err := ctx.Mem.Load32(base + natPriv)
		if err != nil {
			return err
		}
		if cur == 0 {
			break
		}
		if cur == src {
			pub, err = ctx.Mem.Load32(base + natPub)
			if err != nil {
				return err
			}
			ifc, err = ctx.Mem.Load32(base + natIfc)
			if err != nil {
				return err
			}
			found = true
			break
		}
	}
	ctx.Rec.Observe("interface", uint64(ifc))
	if !found {
		// Untranslatable packets are dropped.
		ctx.Rec.Observe("translated-src", 0)
		ctx.Rec.Observe("dst", 0)
		return nil
	}

	// Rewrite the source in the packet header.
	for i := 0; i < 4; i++ {
		if err := ctx.Mem.Store8(buf+simmem.Addr(12+i), byte(pub>>uint(24-8*i))); err != nil {
			return err
		}
	}
	if err := ctx.Exec.Step(natBlkRewrite, 8); err != nil {
		return err
	}
	ctx.Rec.Observe("translated-src", uint64(pub))

	// Route on the (untranslated) destination.
	dst, err := loadHeaderWord32(ctx, buf, 16)
	if err != nil {
		return err
	}
	res, err := a.table.Lookup(ctx.Mem, dst, func(node simmem.Addr) error {
		return ctx.Exec.Step(natBlkNode, 7)
	})
	if err != nil {
		return err
	}
	ctx.Rec.Observe("radix-walk", uint64(res.Steps)<<8|uint64(res.PrefixLen))
	ctx.Rec.Observe("dst", uint64(dst)<<8|uint64(res.NextHop&0xff))
	return ctx.Exec.Step(natBlkRewrite, 4)
}
