package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
)

// tlApp is the table-lookup benchmark: the radix-tree routine common to all
// routing processes, taken in NetBench from the FreeBSD kernel. The data
// plane is a bare longest-prefix match per packet; the observed values are
// the traversed radix-tree nodes and the RouteTable entry (Section 2).
type tlApp struct {
	table *radix.Table
}

func init() { Register("tl", func() App { return &tlApp{} }) }

// TraceConfig: small packets whose destinations are drawn from the table's
// own prefixes, so lookups resolve; tl is short and load-dominated.
func (a *tlApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 256, PayloadMin: 20, PayloadMax: 60,
		Prefixes: routingPrefixes(tlPrefixes), Seed: seed,
	}
}

const (
	tlBlkInsert = iota
	tlBlkNode
	tlBlkResult
)

// tlPrefixes is the routing-table size for the tl workload.
const tlPrefixes = 400

func (a *tlApp) Setup(ctx *Context, tr *packet.Trace) error {
	tab, err := radix.New(ctx.Space, ctx.Mem)
	if err != nil {
		return err
	}
	a.table = tab
	prefixes := routingPrefixes(tlPrefixes)
	for i, p := range prefixes {
		if err := ctx.Exec.Step(tlBlkInsert, 12); err != nil {
			return err
		}
		if err := tab.Insert(ctx.Mem, p, uint32(i+1), uint32(i%8)); err != nil {
			return err
		}
	}
	// Read back a sample of entries as the control-plane observation.
	for i := 0; i < len(prefixes); i += 16 {
		res, err := tab.Lookup(ctx.Mem, prefixes[i].Addr, nil)
		if err != nil {
			return err
		}
		ctx.Rec.Observe("route-entry", uint64(res.NextHop))
	}
	return nil
}

func (a *tlApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// Read the destination address out of the packet header in memory.
	dst, err := loadHeaderWord32(ctx, buf, 16)
	if err != nil {
		return err
	}
	if err := ctx.Exec.Step(tlBlkResult, 6); err != nil {
		return err
	}

	res, err := a.table.Lookup(ctx.Mem, dst, func(node simmem.Addr) error {
		return ctx.Exec.Step(tlBlkNode, 7)
	})
	if err != nil {
		return err
	}
	// Section 2's observed values: the radix-tree nodes traversed (the
	// walk is summarised by its length and endpoint — a corrupted pointer
	// changes both) and the RouteTable entry for the packet.
	ctx.Rec.Observe("radix-walk", uint64(res.Steps)<<8|uint64(res.PrefixLen))
	ctx.Rec.Observe("route-entry", uint64(res.NextHop)<<8|uint64(res.Iface))
	return ctx.Exec.Step(tlBlkResult, 3)
}
