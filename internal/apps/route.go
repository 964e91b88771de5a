package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
)

// routeApp implements IPv4 forwarding per RFC 1812: header checksum
// verification, TTL handling with incremental checksum update, and a
// longest-prefix match for the next hop. The observed values follow
// Figure 6: the created RouteTable entries (control plane), the checksum,
// the TTL, the radix-tree entries traversed, and the route entry per
// packet.
type routeApp struct {
	table *radix.Table
}

func init() { Register("route", func() App { return &routeApp{} }) }

func (a *routeApp) Name() string { return "route" }

const routePrefixes = 300

const (
	routeBlkInsert = iota
	routeBlkChecksum
	routeBlkTTL
	routeBlkNode
	routeBlkForward
)

// TraceConfig: mixed small/medium packets over the routing prefixes.
func (a *routeApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 128, PayloadMin: 40, PayloadMax: 200,
		Prefixes: routingPrefixes(routePrefixes), Seed: seed,
	}
}

func (a *routeApp) Setup(ctx *Context, tr *packet.Trace) error {
	tab, err := radix.New(ctx.Space, ctx.Mem)
	if err != nil {
		return err
	}
	a.table = tab
	prefixes := routingPrefixes(routePrefixes)
	for i, p := range prefixes {
		if err := ctx.Exec.Step(routeBlkInsert, 14); err != nil {
			return err
		}
		if err := tab.Insert(ctx.Mem, p, uint32(i+1), uint32(i%8)); err != nil {
			return err
		}
	}
	// Observe the created RouteTable entries (Figure 6's "RouteTable
	// Entry" structure covers both planes; the control-plane share is the
	// read-back of what initialisation built).
	for i := 0; i < len(prefixes); i += 8 {
		res, err := tab.Lookup(ctx.Mem, prefixes[i].Addr, nil)
		if err != nil {
			return err
		}
		ctx.Rec.Observe("routetable-entry", uint64(res.NextHop)<<8|uint64(res.Iface))
	}
	return nil
}

// loadHeaderWord16 reads a big-endian 16-bit header field from memory.
func loadHeaderWord16(ctx *Context, buf simmem.Addr, off int) (uint16, error) {
	hi, err := ctx.Mem.Load8(buf + simmem.Addr(off))
	if err != nil {
		return 0, err
	}
	lo, err := ctx.Mem.Load8(buf + simmem.Addr(off+1))
	if err != nil {
		return 0, err
	}
	return uint16(hi)<<8 | uint16(lo), nil
}

// loadHeaderWord32 reads a big-endian 32-bit header field, such as an
// address, from memory a byte at a time.
func loadHeaderWord32(ctx *Context, buf simmem.Addr, off int) (uint32, error) {
	var w uint32
	for i := 0; i < 4; i++ {
		b, err := ctx.Mem.Load8(buf + simmem.Addr(off+i))
		if err != nil {
			return 0, err
		}
		w = w<<8 | uint32(b)
	}
	return w, nil
}

func (a *routeApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// 1. Verify the header checksum (RFC 1812 5.2.2) over the 20 bytes in
	// memory, 16 bits at a time.
	var sum uint32
	for off := 0; off < packet.HeaderLen; off += 2 {
		w, err := loadHeaderWord16(ctx, buf, off)
		if err != nil {
			return err
		}
		sum += uint32(w)
		if err := ctx.Exec.Step(routeBlkChecksum, 4); err != nil {
			return err
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
		if err := ctx.Exec.Step(routeBlkChecksum, 2); err != nil {
			return err
		}
	}
	ctx.Rec.Observe("checksum", uint64(uint16(sum))) // 0xffff when intact

	// 2. TTL: drop at <= 1, otherwise decrement in place and patch the
	// checksum incrementally (RFC 1624).
	ttl, err := ctx.Mem.Load8(buf + 8)
	if err != nil {
		return err
	}
	if err := ctx.Exec.Step(routeBlkTTL, 3); err != nil {
		return err
	}
	if ttl <= 1 {
		ctx.Rec.Observe("ttl", uint64(ttl))
		ctx.Rec.Observe("route-entry", 0) // dropped
		return nil
	}
	if err := ctx.Mem.Store8(buf+8, ttl-1); err != nil {
		return err
	}
	ck, err := loadHeaderWord16(ctx, buf, 10)
	if err != nil {
		return err
	}
	// HC' = ~(~HC + ~m + m') with m the old ttl/proto word, m' the new.
	oldWord := uint32(ttl)<<8 | uint32(p.Proto)
	newWord := uint32(ttl-1)<<8 | uint32(p.Proto)
	s := uint32(^ck&0xffff) + (^oldWord & 0xffff) + newWord
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	newCk := ^uint16(s)
	if err := ctx.Mem.Store8(buf+10, byte(newCk>>8)); err != nil {
		return err
	}
	if err := ctx.Mem.Store8(buf+11, byte(newCk)); err != nil {
		return err
	}
	if err := ctx.Exec.Step(routeBlkTTL, 9); err != nil {
		return err
	}
	ctx.Rec.Observe("ttl", uint64(ttl-1))

	// 3. Longest-prefix match on the destination read from memory.
	dst, err := loadHeaderWord32(ctx, buf, 16)
	if err != nil {
		return err
	}
	res, err := a.table.Lookup(ctx.Mem, dst, func(node simmem.Addr) error {
		return ctx.Exec.Step(routeBlkNode, 7)
	})
	if err != nil {
		return err
	}
	ctx.Rec.Observe("radix-walk", uint64(res.Steps)<<8|uint64(res.PrefixLen))
	ctx.Rec.Observe("route-entry", uint64(res.NextHop))
	return ctx.Exec.Step(routeBlkForward, 5)
}
