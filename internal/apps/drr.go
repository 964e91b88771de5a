package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
)

// drrApp implements deficit round-robin scheduling after Shreedhar and
// Varghese: every connection through the router has its own queue, a
// quantum is added to the deficit counter of each visited queue, and
// packets are released while the deficit covers them. The queues, deficit
// list, and classification table all live in simulated memory; the paper's
// observed values are the RouteTable entries, the traversed radix nodes,
// the deficit value, and the deficit information read for each packet.
type drrApp struct {
	table  *radix.Table
	queues simmem.Addr // per-flow queue descriptors
	ring   simmem.Addr // shared ring storage for queued packet lengths
	nq     uint32
}

func init() { Register("drr", func() App { return &drrApp{} }) }

func (a *drrApp) Name() string { return "drr" }

const (
	drrPrefixes = 200
	drrQueues   = 64  // flow queues
	drrRingCap  = 32  // queued lengths per flow
	drrQuantum  = 512 // bytes added per round

	// Queue descriptor layout (words): deficit, head, tail, count.
	qDeficit = 0
	qHead    = 4
	qTail    = 8
	qCount   = 12
	qDescLen = 16
)

const (
	drrBlkClassify = iota
	drrBlkEnqueue
	drrBlkSchedule
	drrBlkDequeue
	drrBlkNode
)

// TraceConfig: many flows, small packets — a scheduling-bound workload.
func (a *drrApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 128, PayloadMin: 64, PayloadMax: 512,
		Prefixes: routingPrefixes(drrPrefixes), Seed: seed,
	}
}

func (a *drrApp) Setup(ctx *Context, tr *packet.Trace) error {
	tab, err := radix.New(ctx.Space, ctx.Mem)
	if err != nil {
		return err
	}
	a.table = tab
	prefixes := routingPrefixes(drrPrefixes)
	for i, p := range prefixes {
		if err := ctx.Exec.Step(drrBlkClassify, 14); err != nil {
			return err
		}
		if err := tab.Insert(ctx.Mem, p, uint32(i+1), uint32(i%8)); err != nil {
			return err
		}
	}

	a.nq = drrQueues
	a.queues, err = ctx.Space.Alloc(drrQueues*qDescLen, 8)
	if err != nil {
		return err
	}
	a.ring, err = ctx.Space.Alloc(drrQueues*drrRingCap*4, 8)
	if err != nil {
		return err
	}
	var digest uint64
	for q := uint32(0); q < drrQueues; q++ {
		base := a.queues + simmem.Addr(q*qDescLen)
		for off := simmem.Addr(0); off < qDescLen; off += 4 {
			if err := ctx.Mem.Store32(base+off, 0); err != nil {
				return err
			}
		}
		if err := ctx.Exec.Step(drrBlkEnqueue, 6); err != nil {
			return err
		}
		digest += uint64(q)
	}
	ctx.Rec.Observe("deficit-list", digest) // initial (all-zero) deficit list identity
	// Read back a routing sample.
	for i := 0; i < len(prefixes); i += 16 {
		res, err := tab.Lookup(ctx.Mem, prefixes[i].Addr, nil)
		if err != nil {
			return err
		}
		ctx.Rec.Observe("routetable-entry", uint64(res.NextHop))
	}
	return nil
}

func (a *drrApp) qword(q uint32, off simmem.Addr) simmem.Addr {
	return a.queues + simmem.Addr(q*qDescLen) + off
}

func (a *drrApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	// Classify: radix lookup on the destination selects the output route;
	// the flow queue is chosen from the source address.
	dst, err := loadHeaderWord32(ctx, buf, 16)
	if err != nil {
		return err
	}
	res, err := a.table.Lookup(ctx.Mem, dst, func(node simmem.Addr) error {
		return ctx.Exec.Step(drrBlkNode, 7)
	})
	if err != nil {
		return err
	}
	ctx.Rec.Observe("radix-walk", uint64(res.Steps)<<8|uint64(res.PrefixLen))
	ctx.Rec.Observe("routetable-entry", uint64(res.NextHop))

	src, err := loadHeaderWord32(ctx, buf, 12)
	if err != nil {
		return err
	}
	q := src % a.nq
	if err := ctx.Exec.Step(drrBlkClassify, 8); err != nil {
		return err
	}

	// Enqueue the packet length, dropping when the ring is full (a router
	// drops packets under pressure; this is normal DRR behaviour).
	count, err := ctx.Mem.Load32(a.qword(q, qCount))
	if err != nil {
		return err
	}
	size := uint32(packet.HeaderLen + len(p.Payload))
	if count < drrRingCap {
		tail, err := ctx.Mem.Load32(a.qword(q, qTail))
		if err != nil {
			return err
		}
		slot := a.ring + simmem.Addr((q*drrRingCap+tail%drrRingCap)*4)
		if err := ctx.Mem.Store32(slot, size); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.qword(q, qTail), (tail+1)%drrRingCap); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.qword(q, qCount), count+1); err != nil {
			return err
		}
	}
	if err := ctx.Exec.Step(drrBlkEnqueue, 10); err != nil {
		return err
	}

	// Service the queue: one DRR visit. The deficit information read for
	// the packet and the resulting deficit are both observed values.
	deficit, err := ctx.Mem.Load32(a.qword(q, qDeficit))
	if err != nil {
		return err
	}
	ctx.Rec.Observe("deficit-read", uint64(deficit))
	deficit += drrQuantum
	for {
		if err := ctx.Exec.Step(drrBlkSchedule, 6); err != nil {
			return err
		}
		cnt, err := ctx.Mem.Load32(a.qword(q, qCount))
		if err != nil {
			return err
		}
		if cnt == 0 {
			deficit = 0 // an empty queue forfeits its deficit
			break
		}
		head, err := ctx.Mem.Load32(a.qword(q, qHead))
		if err != nil {
			return err
		}
		slot := a.ring + simmem.Addr((q*drrRingCap+head%drrRingCap)*4)
		headLen, err := ctx.Mem.Load32(slot)
		if err != nil {
			return err
		}
		if headLen > deficit {
			break
		}
		deficit -= headLen
		if err := ctx.Mem.Store32(a.qword(q, qHead), (head+1)%drrRingCap); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.qword(q, qCount), cnt-1); err != nil {
			return err
		}
		if err := ctx.Exec.Step(drrBlkDequeue, 8); err != nil {
			return err
		}
	}
	if err := ctx.Mem.Store32(a.qword(q, qDeficit), deficit); err != nil {
		return err
	}
	ctx.Rec.Observe("deficit-value", uint64(deficit))
	return nil
}
