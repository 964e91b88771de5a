// Package radix implements the routing table shared by the tl, route, drr,
// nat and url applications: a binary (radix) trie in the style of the
// FreeBSD table-lookup code the NetBench tl benchmark is taken from.
//
// The distinguishing property of this implementation is that every node —
// including the child pointers — lives inside the simulated address space
// and is reached through the simmem.Memory interface. When the clumsy L1
// data cache flips a bit in a child pointer, the traversal really does walk
// into unrelated memory: it may read garbage route entries (a silent,
// application-level error), trap on an unmapped or misaligned address (a
// fatal error), or loop (caught by the traversal watchdog) — exactly the
// error classes the paper instruments.
package radix

import (
	"errors"

	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

// Node layout, in 32-bit words:
//
//	w0: flags — bit 0: node carries a route; bits 8..15: prefix length
//	w1: left child address (0 = none)
//	w2: right child address (0 = none)
//	w3: next hop
//	w4: interface index
//	w5: bit index this node tests (as in the FreeBSD radix code, the bit
//	    index is part of the node, so a corrupted node can send the walk
//	    back up the trie and form a cycle)
const (
	nodeSize  = 24
	offFlags  = 0
	offLeft   = 4
	offRight  = 8
	offNhop   = 12
	offIface  = 16
	offBit    = 20
	flagRoute = 1
)

// TraversalLimit bounds a lookup walk. A healthy IPv4 trie never exceeds
// 33 nodes; a corrupted pointer that forms a cycle trips this limit.
const TraversalLimit = 64

// ErrLoop is returned when a lookup exceeds TraversalLimit — in a faulty
// execution this indicates a pointer cycle created by corruption, and the
// processor treats it as a fatal (stuck) error.
var ErrLoop = errors.New("radix: traversal limit exceeded")

// Table is a radix routing table rooted in simulated memory.
type Table struct {
	space *simmem.Space
	root  simmem.Addr
}

// validChild reports whether a child pointer loaded from memory looks like
// a plausible node address. The FreeBSD radix code this models checks its
// pointers before following them, so a corrupted pointer that escapes the
// heap reads as a dead end (a wrong lookup result — a silent error) rather
// than a protection fault. Pointers that stay inside the arena are
// followed and read garbage, and a pointer that loops the walk back on
// itself trips the traversal watchdog — the infinite-loop fatal errors the
// paper reports.
func (t *Table) validChild(a simmem.Addr) bool {
	return a >= simmem.PageBase && uint64(a)+nodeSize <= uint64(t.space.Brk())
}

// New allocates an empty table (just the root node) in space. The root is
// created through mem so that control-plane fault injection applies.
func New(space *simmem.Space, mem simmem.Memory) (*Table, error) {
	t := &Table{space: space}
	root, err := t.newNode(mem)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Table) newNode(mem simmem.Memory) (simmem.Addr, error) {
	a, err := t.space.Alloc(nodeSize, 8)
	if err != nil {
		return 0, err
	}
	// The arena zeroes memory, but the writes must still go through the
	// cache so the golden and faulty executions issue identical accesses.
	for off := simmem.Addr(0); off < nodeSize; off += 4 {
		if err := mem.Store32(a+off, 0); err != nil {
			return 0, err
		}
	}
	return a, nil
}

// Insert adds a prefix with its next hop and interface. All reads and
// writes go through mem.
func (t *Table) Insert(mem simmem.Memory, p packet.Prefix, nextHop, iface uint32) error {
	if p.Len < 0 || p.Len > 32 {
		return errors.New("radix: prefix length out of range")
	}
	cur := t.root
	for depth := 0; depth < p.Len; depth++ {
		off := simmem.Addr(offLeft)
		if p.Addr&(1<<uint(31-depth)) != 0 {
			off = offRight
		}
		child, err := mem.Load32(cur + off)
		if err != nil {
			return err
		}
		if child != 0 && !t.validChild(child) {
			// A corrupted link: the insert rebuilds the subtree from a
			// fresh node, orphaning whatever the bogus pointer shadowed.
			child = 0
		}
		if child == 0 {
			child, err = t.newNode(mem)
			if err != nil {
				return err
			}
			if err := mem.Store32(cur+off, child); err != nil {
				return err
			}
			if err := mem.Store32(child+offBit, uint32(depth+1)); err != nil {
				return err
			}
		}
		cur = child
	}
	if err := mem.Store32(cur+offNhop, nextHop); err != nil {
		return err
	}
	if err := mem.Store32(cur+offIface, iface); err != nil {
		return err
	}
	return mem.Store32(cur+offFlags, flagRoute|uint32(p.Len)<<8)
}

// Result is the outcome of a lookup. A lookup that matches no route
// leaves NextHop, Iface and PrefixLen zero.
type Result struct {
	NextHop   uint32
	Iface     uint32
	PrefixLen int
	Steps     int // nodes visited
}

// Lookup performs a longest-prefix match for addr through mem. onNode, if
// non-nil, is invoked for every node visited (the applications use it to
// account instructions and observe the traversed entries).
func (t *Table) Lookup(mem simmem.Memory, addr uint32, onNode func(simmem.Addr) error) (Result, error) {
	var res Result
	cur := t.root
	for {
		if res.Steps >= TraversalLimit {
			return res, ErrLoop
		}
		res.Steps++
		if onNode != nil {
			if err := onNode(cur); err != nil {
				return res, err
			}
		}
		flags, err := mem.Load32(cur + offFlags)
		if err != nil {
			return res, err
		}
		if flags&flagRoute != 0 {
			nhop, err := mem.Load32(cur + offNhop)
			if err != nil {
				return res, err
			}
			ifc, err := mem.Load32(cur + offIface)
			if err != nil {
				return res, err
			}
			res.NextHop = nhop
			res.Iface = ifc
			res.PrefixLen = int(flags >> 8 & 0xff)
		}
		// The bit index to test is stored in the node (FreeBSD-style); a
		// corrupted index can revisit earlier bits and cycle.
		bit, err := mem.Load32(cur + offBit)
		if err != nil {
			return res, err
		}
		if bit >= 32 {
			return res, nil
		}
		off := simmem.Addr(offLeft)
		if addr&(1<<(31-bit)) != 0 {
			off = offRight
		}
		child, err := mem.Load32(cur + off)
		if err != nil {
			return res, err
		}
		if child == 0 || !t.validChild(child) {
			return res, nil
		}
		cur = simmem.Align(child, 8)
	}
}
