// Package simmem provides the simulated 32-bit address space in which all
// application data structures live. Every load and store issued by the
// NetBench applications goes through a Memory implementation — either the
// Space itself (the fault-free golden run) or the cache hierarchy with fault
// injection (the clumsy run). Because structure layouts, including pointers
// between radix-tree nodes, table entries, and queues, are encoded inside
// this space, an injected bit flip corrupts exactly the kind of state the
// paper instruments: a flipped pointer bit sends a lookup into unrelated
// memory or out of bounds (a fatal error), a flipped payload bit silently
// changes a checksum or TTL.
package simmem

import (
	"encoding/binary"
	"fmt"
)

// Addr is an address in the simulated space.
type Addr = uint32

// PageBase is the lowest valid address. The first page is kept unmapped so
// that null or near-null pointers produced by fault corruption trap as
// fatal access errors, like a real protection fault.
const PageBase Addr = 0x1000

// AccessError describes an invalid simulated memory access. The clumsy
// processor treats it as a fatal application error (Section 2: errors that
// prevent a complete execution).
type AccessError struct {
	Op     string // "load8", "store32", ...
	Addr   Addr
	Reason string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("simmem: %s at %#x: %s", e.Op, e.Addr, e.Reason)
}

// Memory is the access interface the applications are written against.
// Multi-byte quantities are little-endian; misaligned addresses have their
// low bits ignored (ARM behaviour), and out-of-range accesses return an
// *AccessError.
type Memory interface {
	Load8(a Addr) (uint8, error)
	Store8(a Addr, v uint8) error
	Load32(a Addr) (uint32, error)
	Store32(a Addr, v uint32) error
}

// PageShift is the log2 of the page size (4 KiB pages).
const PageShift = 12

// PageSize is the granularity of allocation, dirty tracking and restore.
const PageSize = 1 << PageShift

// pageMask selects an address's offset within its page.
const pageMask = PageSize - 1

// zeroPage is what a page that has never been written reads as. Only the
// load paths see it; stores go through page, which allocates.
var zeroPage [PageSize]byte

// Space is the backing store: a table of pages with a bump allocator. A
// page is allocated on its first write; a nil page has never been written
// and reads as zeros, so a run pays only for the memory it writes. When a
// Checkpoint is active, every store additionally marks the written page in
// the dirty bitmap (see checkpoint.go); dirty is nil otherwise. Every
// field is carried across a rollback by the checkpoint machinery; the
// statecover analyzer keeps it that way.
//
//lint:checkpoint NewCheckpoint, Commit, Restore
type Space struct {
	pages []*[PageSize]byte
	size  int //lint:ephemeral the extent in bytes, fixed at construction
	brk   Addr
	dirty []uint64
}

// NewSpace creates a space of the given size in bytes. The size must cover
// at least the unmapped first page plus some usable memory.
func NewSpace(size int) *Space {
	if size <= int(PageBase) {
		panic("simmem: space smaller than the unmapped page")
	}
	pages := (size + PageSize - 1) >> PageShift
	return &Space{pages: make([]*[PageSize]byte, pages), size: size, brk: PageBase}
}

// Size returns the extent of the space in bytes.
func (s *Space) Size() int { return s.size }

// Brk returns the current allocation frontier.
func (s *Space) Brk() Addr { return s.brk }

// Alloc carves size bytes aligned to align (a power of two) out of the
// arena and returns the base address. The returned memory is zeroed.
func (s *Space) Alloc(size, align int) (Addr, error) {
	if size < 0 {
		return 0, fmt.Errorf("simmem: negative allocation size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("simmem: alignment %d is not a positive power of two", align)
	}
	base := (uint64(s.brk) + uint64(align) - 1) &^ (uint64(align) - 1)
	end := base + uint64(size)
	if end > uint64(s.size) {
		return 0, fmt.Errorf("simmem: out of memory (need %d bytes at %#x, space %d)", size, base, s.size)
	}
	s.brk = Addr(end)
	return Addr(base), nil
}

// MustAlloc is Alloc for setup code where exhaustion is a programming
// error (sizing the space is part of each experiment's configuration).
func (s *Space) MustAlloc(size, align int) Addr {
	a, err := s.Alloc(size, align)
	if err != nil {
		panic(err)
	}
	return a
}

// check validates an access. Misaligned multi-byte accesses are not an
// error: like the ARM cores the paper simulates, the hardware simply
// ignores the low address bits (callers mask them), so a corrupted pointer
// produces wrong data rather than a trap. Only the unmapped first page and
// the end of the physical space trap.
func (s *Space) check(op string, a Addr, width int) error {
	if a < PageBase {
		return &AccessError{Op: op, Addr: a, Reason: "address in unmapped page"}
	}
	if uint64(a)+uint64(width) > uint64(s.size) {
		return &AccessError{Op: op, Addr: a, Reason: "address beyond end of space"}
	}
	return nil
}

// readPage returns the page holding a for reading: zeroPage if the page
// has never been written. Reads never allocate.
func (s *Space) readPage(a Addr) *[PageSize]byte {
	if p := s.pages[a>>PageShift]; p != nil {
		return p
	}
	return &zeroPage
}

// page returns the page holding a for writing, allocating it on its first
// write.
func (s *Space) page(a Addr) *[PageSize]byte {
	p := s.pages[a>>PageShift]
	if p == nil {
		p = new([PageSize]byte) //lint:alloc-ok the first write to a page allocates it, once per page per space
		s.pages[a>>PageShift] = p
	}
	return p
}

// Align rounds an address down to the natural alignment of a width-byte
// access, mirroring the ARM behaviour of ignoring the low address bits.
func Align(a Addr, width int) Addr {
	return a &^ (Addr(width) - 1)
}

// Load8 reads one byte.
func (s *Space) Load8(a Addr) (uint8, error) {
	if err := s.check("load8", a, 1); err != nil {
		return 0, err
	}
	return s.readPage(a)[a&pageMask], nil
}

// Store8 writes one byte.
func (s *Space) Store8(a Addr, v uint8) error {
	if err := s.check("store8", a, 1); err != nil {
		return err
	}
	s.markDirty(a, 1)
	s.page(a)[a&pageMask] = v
	return nil
}

// Load32 reads a little-endian 32-bit value.
func (s *Space) Load32(a Addr) (uint32, error) {
	a = Align(a, 4)
	if err := s.check("load32", a, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s.readPage(a)[a&pageMask:]), nil
}

// Store32 writes a little-endian 32-bit value.
func (s *Space) Store32(a Addr, v uint32) error {
	a = Align(a, 4)
	if err := s.check("store32", a, 4); err != nil {
		return err
	}
	s.markDirty(a, 4)
	binary.LittleEndian.PutUint32(s.page(a)[a&pageMask:], v)
	return nil
}

// ReadBlock copies len(buf) bytes starting at a into buf without going
// through the access interface. It is used by the cache simulator for line
// fills and by tests; applications must not call it.
func (s *Space) ReadBlock(a Addr, buf []byte) error {
	if err := s.check("readblock", a, 1); err != nil {
		return err
	}
	if uint64(a)+uint64(len(buf)) > uint64(s.size) {
		return &AccessError{Op: "readblock", Addr: a, Reason: "block beyond end of space"}
	}
	for len(buf) > 0 {
		n := copy(buf, s.readPage(a)[a&pageMask:])
		buf, a = buf[n:], a+Addr(n)
	}
	return nil
}

// WriteBlock copies buf into the space starting at a (cache write-backs).
func (s *Space) WriteBlock(a Addr, buf []byte) error {
	if err := s.check("writeblock", a, 1); err != nil {
		return err
	}
	if uint64(a)+uint64(len(buf)) > uint64(s.size) {
		return &AccessError{Op: "writeblock", Addr: a, Reason: "block beyond end of space"}
	}
	if len(buf) > 0 {
		s.markDirty(a, len(buf))
	}
	// A block may cross page boundaries (a DMA buffer can; an L2 line
	// never does): each page it covers is allocated on its first write.
	for len(buf) > 0 {
		n := copy(s.page(a)[a&pageMask:], buf)
		buf, a = buf[n:], a+Addr(n)
	}
	return nil
}

var _ Memory = (*Space)(nil)
