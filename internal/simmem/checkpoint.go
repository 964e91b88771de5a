package simmem

// Dirty-page tracking and checkpoint/restore: the state-containment
// substrate of the drop-and-continue recovery policy. A router that "drops
// the offending packet and keeps forwarding" (Section 2 of the paper) must
// be able to discard whatever a half-processed packet did to its control
// state; here that is modelled as a shadow copy of the space's pages plus
// a page-granular dirty bitmap, committed at every packet boundary and
// rolled back when a fatal error strikes mid-packet.
//
// The tracking is off by default: a Space with no checkpoint attached pays
// one nil-check per store, so the golden run and the paper-fidelity abort
// policy are untouched.

import "math/bits"

// markDirty flags every page overlapped by a [a, a+width) write. It is a
// no-op (one branch) unless a Checkpoint enabled tracking.
func (s *Space) markDirty(a Addr, width int) {
	if s.dirty == nil {
		return
	}
	first := int(a) >> PageShift
	last := (int(a) + width - 1) >> PageShift
	for p := first; p <= last; p++ {
		s.dirty[p>>6] |= 1 << (uint(p) & 63)
	}
}

// Checkpoint is a restorable snapshot of a Space. Creating one copies every
// page the space has into a shadow page table and turns on dirty-page
// tracking; from then on Commit folds newly written pages into the shadow
// (advancing the restore point to the current state) and Restore copies
// them back (rewinding to the last commit). A page with no shadow was
// never written at the restore point, so Restore zeroes it. Exactly one
// checkpoint can be active per space; creating a new one supersedes the
// old.
//
//lint:checkpoint NewCheckpoint, Commit, Restore
type Checkpoint struct {
	space  *Space
	shadow []*[PageSize]byte
	brk    Addr
}

// NewCheckpoint snapshots the current state of the space and enables
// dirty-page tracking against it. Only the pages that exist are copied.
func (s *Space) NewCheckpoint() *Checkpoint {
	c := &Checkpoint{space: s, shadow: make([]*[PageSize]byte, len(s.pages)), brk: s.brk}
	for p, pg := range s.pages {
		if pg != nil {
			sh := *pg
			c.shadow[p] = &sh
		}
	}
	s.dirty = make([]uint64, (len(s.pages)+63)/64)
	return c
}

// forEachDirty invokes f with the index of every dirty page, clears the
// bitmap, and returns the number of dirty pages visited. A dirty page has
// been written, so it exists.
func (c *Checkpoint) forEachDirty(f func(p int)) int {
	s := c.space
	n := 0
	for wi, w := range s.dirty {
		if w == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			f(wi<<6 + bits.TrailingZeros64(w))
			n++
		}
		s.dirty[wi] = 0
	}
	return n
}

// Commit folds every page written since the last commit (or since the
// checkpoint was created) into the shadow, making the current state the new
// restore point. It returns the number of pages committed.
//
//lint:hot-path
func (c *Checkpoint) Commit() int {
	//lint:alloc-ok the closure captures only the receiver; it is inlined, and the zero-alloc pin verifies it
	n := c.forEachDirty(func(p int) {
		sh := c.shadow[p]
		if sh == nil {
			sh = new([PageSize]byte) //lint:alloc-ok the first commit of a page allocates its shadow, once per page per checkpoint
			c.shadow[p] = sh
		}
		*sh = *c.space.pages[p]
	})
	c.brk = c.space.brk
	return n
}

// Restore copies the shadow back over every page written since the last
// commit and rewinds the allocation frontier, discarding everything the
// aborted packet did to the simulated memory. It returns the number of
// pages restored.
//
//lint:hot-path
func (c *Checkpoint) Restore() int {
	//lint:alloc-ok the closure captures only the receiver; it is inlined, and the zero-alloc pin verifies it
	n := c.forEachDirty(func(p int) {
		if sh := c.shadow[p]; sh != nil {
			*c.space.pages[p] = *sh
		} else {
			*c.space.pages[p] = [PageSize]byte{}
		}
	})
	c.space.brk = c.brk
	return n
}

// Release turns dirty tracking off, returning the space to its zero-cost
// store path. The checkpoint must not be used afterwards.
func (c *Checkpoint) Release() {
	if c.space.dirty != nil {
		c.space.dirty = nil
	}
}
