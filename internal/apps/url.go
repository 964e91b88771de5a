package apps

import (
	"clumsy/internal/packet"
	"clumsy/internal/radix"
	"clumsy/internal/simmem"
)

// urlApp implements URL-based destination switching: a content-aware load
// balancer that parses the HTTP request line of each packet, matches the
// request path against a URL table, rewrites the destination to the server
// handling that content, and routes the result. Observed values follow
// Section 2: URL table entries (control plane), the final destination, the
// RouteTable entries, the checksum, the TTL, and the traversed radix nodes.
type urlApp struct {
	table   *radix.Table
	strings simmem.Addr // packed NUL-terminated URL strings
	offsets simmem.Addr // per-entry offset of the string
	dests   simmem.Addr // per-entry destination server
	n       uint32
	paths   []string
}

func init() { Register("url", func() App { return &urlApp{} }) }

const (
	urlPrefixes = 350
	urlMaxPath  = 64 // longest matchable path

	// urlMaxTableBytes bounds the packed string table; offsets beyond it
	// are rejected as corrupt.
	urlMaxTableBytes = 1 << 16
)

const (
	urlBlkInsert = iota
	urlBlkParse
	urlBlkMatch
	urlBlkRewrite
	urlBlkNode
)

// TraceConfig: all packets carry HTTP GETs; payload parsing plus a large
// URL table give url the paper's highest access count and miss rate.
func (a *urlApp) TraceConfig(packets int, seed uint64) packet.TraceConfig {
	return packet.TraceConfig{
		Packets: packets, Flows: 192, PayloadMin: 300, PayloadMax: 1200,
		HTTPFraction: 1.0, Prefixes: routingPrefixes(urlPrefixes), Seed: seed,
	}
}

func (a *urlApp) Setup(ctx *Context, tr *packet.Trace) error {
	tab, err := radix.New(ctx.Space, ctx.Mem)
	if err != nil {
		return err
	}
	a.table = tab
	prefixes := routingPrefixes(urlPrefixes)
	for i, p := range prefixes {
		if err := ctx.Exec.Step(urlBlkInsert, 14); err != nil {
			return err
		}
		if err := tab.Insert(ctx.Mem, p, uint32(i+1), uint32(i%8)); err != nil {
			return err
		}
	}

	a.paths = packet.DefaultURLPaths
	a.n = uint32(len(a.paths))
	total := 0
	for _, s := range a.paths {
		total += len(s) + 1
	}
	a.strings, err = ctx.Space.Alloc(total, 4)
	if err != nil {
		return err
	}
	a.offsets, err = ctx.Space.Alloc(int(a.n)*4, 4)
	if err != nil {
		return err
	}
	a.dests, err = ctx.Space.Alloc(int(a.n)*4, 4)
	if err != nil {
		return err
	}
	off := uint32(0)
	var digest uint64
	for i, s := range a.paths {
		if err := simmem.StoreString(ctx.Mem, a.strings+simmem.Addr(off), s); err != nil {
			return err
		}
		if err := ctx.Mem.Store32(a.offsets+simmem.Addr(i*4), off); err != nil {
			return err
		}
		dest := prefixes[i%len(prefixes)].Addr | 0x0101 // a server inside a routed prefix
		if err := ctx.Mem.Store32(a.dests+simmem.Addr(i*4), dest); err != nil {
			return err
		}
		digest ^= uint64(dest) + uint64(off)<<32
		off += uint32(len(s) + 1)
		if err := ctx.Exec.Step(urlBlkInsert, 8); err != nil {
			return err
		}
	}
	ctx.Rec.Observe("url-table", digest)
	return nil
}

func (a *urlApp) Process(ctx *Context, p *packet.Packet, buf simmem.Addr) error {
	payload := buf + packet.HeaderLen
	payloadLen := len(p.Payload)

	// Parse the request line: expect "GET <path> ".
	if err := ctx.Exec.Step(urlBlkParse, 4); err != nil {
		return err
	}
	ok := true
	for i, want := range []byte("GET ") {
		if i >= payloadLen {
			ok = false
			break
		}
		b, err := ctx.Mem.Load8(payload + simmem.Addr(i))
		if err != nil {
			return err
		}
		if b != want {
			ok = false
			break
		}
	}
	if !ok {
		ctx.Rec.Observe("url-entry", ^uint64(0))
		ctx.Rec.Observe("final-dst", 0)
		return nil
	}
	// Extract the path into a scratch area of registers (host slice — it
	// models the parser's register window, not a data structure).
	var path [urlMaxPath]byte
	plen := 0
	for ; plen < urlMaxPath; plen++ {
		idx := 4 + plen
		if idx >= payloadLen {
			break
		}
		b, err := ctx.Mem.Load8(payload + simmem.Addr(idx))
		if err != nil {
			return err
		}
		if b == ' ' || b == 0 || b == '\r' {
			break
		}
		path[plen] = b
		if err := ctx.Exec.Step(urlBlkParse, 3); err != nil {
			return err
		}
	}

	// Match against the URL table: compare strings byte-by-byte through
	// the cache.
	match := -1
	for e := uint32(0); e < a.n && match < 0; e++ {
		if err := ctx.Exec.Step(urlBlkMatch, 5); err != nil {
			return err
		}
		strOff, err := ctx.Mem.Load32(a.offsets + simmem.Addr(e*4))
		if err != nil {
			return err
		}
		if strOff > urlMaxTableBytes {
			// A corrupted offset: the table code rejects it and treats the
			// entry as a mismatch (a silent error), as bounds-checked
			// production code would.
			continue
		}
		base := a.strings + simmem.Addr(strOff)
		same := true
		for i := 0; i <= plen && i < urlMaxPath+1; i++ {
			tb, err := ctx.Mem.Load8(base + simmem.Addr(i))
			if err != nil {
				return err
			}
			var pb byte
			if i < plen {
				pb = path[i]
			}
			if tb != pb {
				same = false
				break
			}
			if err := ctx.Exec.Step(urlBlkMatch, 3); err != nil {
				return err
			}
		}
		if same {
			match = int(e)
		}
	}
	ctx.Rec.Observe("url-entry", uint64(uint32(match)))
	if match < 0 {
		ctx.Rec.Observe("final-dst", 0)
		return nil
	}

	// Scan the remainder of the request for the end of the header block
	// (content-aware switches inspect the full request); the scan streams
	// every payload byte through the data cache.
	headerEnd := payloadLen
	run := 0
	for i := 4 + plen; i < payloadLen; i++ {
		b, err := ctx.Mem.Load8(payload + simmem.Addr(i))
		if err != nil {
			return err
		}
		if b == '\r' || b == '\n' {
			run++
			if run == 4 {
				headerEnd = i + 1
				break
			}
		} else {
			run = 0
		}
		if err := ctx.Exec.Step(urlBlkParse, 3); err != nil {
			return err
		}
	}
	ctx.Rec.Observe("header-end", uint64(headerEnd))

	// Rewrite the destination to the content server and patch TTL and
	// checksum as a router would.
	dest, err := ctx.Mem.Load32(a.dests + simmem.Addr(match*4))
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := ctx.Mem.Store8(buf+simmem.Addr(16+i), byte(dest>>uint(24-8*i))); err != nil {
			return err
		}
	}
	ttl, err := ctx.Mem.Load8(buf + 8)
	if err != nil {
		return err
	}
	if ttl > 0 {
		ttl--
	}
	if err := ctx.Mem.Store8(buf+8, ttl); err != nil {
		return err
	}
	ctx.Rec.Observe("ttl", uint64(ttl))

	// Recompute the header checksum over the rewritten header.
	if err := ctx.Mem.Store8(buf+10, 0); err != nil {
		return err
	}
	if err := ctx.Mem.Store8(buf+11, 0); err != nil {
		return err
	}
	var sum uint32
	for off := 0; off < packet.HeaderLen; off += 2 {
		w, err := loadHeaderWord16(ctx, buf, off)
		if err != nil {
			return err
		}
		sum += uint32(w)
		if err := ctx.Exec.Step(urlBlkRewrite, 4); err != nil {
			return err
		}
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	ck := ^uint16(sum)
	if err := ctx.Mem.Store8(buf+10, byte(ck>>8)); err != nil {
		return err
	}
	if err := ctx.Mem.Store8(buf+11, byte(ck)); err != nil {
		return err
	}
	ctx.Rec.Observe("checksum", uint64(ck))

	// Route toward the content server.
	res, err := a.table.Lookup(ctx.Mem, dest, func(node simmem.Addr) error {
		return ctx.Exec.Step(urlBlkNode, 7)
	})
	if err != nil {
		return err
	}
	ctx.Rec.Observe("radix-walk", uint64(res.Steps)<<8|uint64(res.PrefixLen))
	ctx.Rec.Observe("final-dst", uint64(dest)<<8|uint64(res.NextHop&0xff))
	return ctx.Exec.Step(urlBlkRewrite, 6)
}
