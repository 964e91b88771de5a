package simmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// refSpace is the differential reference for the paged Space and its
// checkpoint: one flat byte slice, a bump allocator, a set of dirty pages,
// and checkpoints that copy the whole space. It is deliberately naive so
// that it is obviously right.
type refSpace struct {
	data   []byte
	brk    Addr
	dirty  map[int]bool // nil while no checkpoint tracks the space
	shadow []byte       // the restore point's full image
	ckBrk  Addr
}

func newRefSpace(size int) *refSpace {
	return &refSpace{data: make([]byte, size), brk: PageBase}
}

func (r *refSpace) alloc(size, align int) (Addr, error) {
	base := (uint64(r.brk) + uint64(align) - 1) &^ (uint64(align) - 1)
	end := base + uint64(size)
	if end > uint64(len(r.data)) {
		return 0, fmt.Errorf("simmem: out of memory (need %d bytes at %#x, space %d)", size, base, len(r.data))
	}
	r.brk = Addr(end)
	return Addr(base), nil
}

func (r *refSpace) check(op string, a Addr, width int) error {
	if a < PageBase {
		return &AccessError{Op: op, Addr: a, Reason: "address in unmapped page"}
	}
	if uint64(a)+uint64(width) > uint64(len(r.data)) {
		return &AccessError{Op: op, Addr: a, Reason: "address beyond end of space"}
	}
	return nil
}

func (r *refSpace) load(op string, a Addr, width int) (uint32, error) {
	a = Align(a, width)
	if err := r.check(op, a, width); err != nil {
		return 0, err
	}
	var v uint32
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint32(r.data[int(a)+i])
	}
	return v, nil
}

func (r *refSpace) store(op string, a Addr, width int, v uint32) error {
	a = Align(a, width)
	if err := r.check(op, a, width); err != nil {
		return err
	}
	r.touch(int(a), width)
	for i := 0; i < width; i++ {
		r.data[int(a)+i] = byte(v >> (8 * i))
	}
	return nil
}

func (r *refSpace) block(op string, a Addr, n int) error {
	if err := r.check(op, a, 1); err != nil {
		return err
	}
	if uint64(a)+uint64(n) > uint64(len(r.data)) {
		return &AccessError{Op: op, Addr: a, Reason: "block beyond end of space"}
	}
	return nil
}

func (r *refSpace) readBlock(a Addr, buf []byte) error {
	if err := r.block("readblock", a, len(buf)); err != nil {
		return err
	}
	copy(buf, r.data[a:])
	return nil
}

func (r *refSpace) writeBlock(a Addr, buf []byte) error {
	if err := r.block("writeblock", a, len(buf)); err != nil {
		return err
	}
	if len(buf) > 0 {
		r.touch(int(a), len(buf))
	}
	copy(r.data[a:], buf)
	return nil
}

// touch marks the pages holding bytes [i, i+n) dirty while a checkpoint
// tracks.
func (r *refSpace) touch(i, n int) {
	for p := i / PageSize; r.dirty != nil && p <= (i+n-1)/PageSize; p++ {
		r.dirty[p] = true
	}
}

func (r *refSpace) newCheckpoint() {
	r.shadow = bytes.Clone(r.data)
	r.ckBrk = r.brk
	r.dirty = map[int]bool{}
}

func (r *refSpace) commit() int {
	n := len(r.dirty)
	r.shadow = bytes.Clone(r.data)
	r.ckBrk = r.brk
	clear(r.dirty)
	return n
}

func (r *refSpace) restore() int {
	n := len(r.dirty)
	copy(r.data, r.shadow)
	r.brk = r.ckBrk
	clear(r.dirty)
	return n
}

func (r *refSpace) release() { r.dirty, r.shadow = nil, nil }

// The operations of the fuzz program, one byte each, followed by their
// arguments (see FuzzSpaceCheckpoint).
const (
	fzAlloc byte = iota
	fzLoad8
	fzLoad8Odd // a byte at an odd address: a non-zero offset in its word
	fzLoad32
	fzStore8
	fzStore8Odd
	fzStore32
	fzReadBlock
	fzWriteBlock
	fzCheckpoint
	fzCommit
	fzRestore
	fzRelease
	fzOps
)

// fuzzSizes are the space sizes a program can pick: whole pages and a
// partial last page.
var fuzzSizes = []int{4 * PageSize, 6*PageSize + 1000, 9*PageSize - 3}

// fuzzInput decodes a fuzz program; a program that runs out of bytes reads
// zeros and stops at the next operation.
type fuzzInput struct{ in []byte }

func (f *fuzzInput) done() bool { return len(f.in) == 0 }

func (f *fuzzInput) byte() byte {
	if len(f.in) == 0 {
		return 0
	}
	b := f.in[0]
	f.in = f.in[1:]
	return b
}

func (f *fuzzInput) u16() uint16 { return uint16(f.byte()) | uint16(f.byte())<<8 }
func (f *fuzzInput) u32() uint32 { return uint32(f.u16()) | uint32(f.u16())<<16 }

// addr decodes an address: a raw value (which reaches the unmapped page and
// just past the end), the last bytes of the space, a page boundary, or a
// wild pointer above the allocation frontier.
func (f *fuzzInput) addr(r *refSpace) Addr {
	x, size := f.u32(), uint32(len(r.data))
	switch f.byte() % 4 {
	case 0:
		return x % (size + 16)
	case 1:
		return size - x%24
	case 2:
		return Addr(x%(size/PageSize+1))*PageSize + Addr(x>>16%32) - 16
	default:
		return r.brk + x%(2*PageSize)
	}
}

// fuzzProg builds a seed program; at encodes a raw address (mode 0).
type fuzzProg []byte

func (p fuzzProg) op(o byte) fuzzProg    { return append(p, o) }
func (p fuzzProg) b(v byte) fuzzProg     { return append(p, v) }
func (p fuzzProg) u16(v int) fuzzProg    { return binary.LittleEndian.AppendUint16(p, uint16(v)) }
func (p fuzzProg) u32(v uint32) fuzzProg { return binary.LittleEndian.AppendUint32(p, v) }
func (p fuzzProg) at(a Addr) fuzzProg    { return p.u32(a).b(0) }

// FuzzSpaceCheckpoint drives the paged Space and refSpace through the same
// operations — allocation, loads and stores of every width, block reads and
// writes that cross pages, and checkpoint create/commit/restore/release —
// and requires values, errors, Brk, the dirty-page count and the whole
// contents to agree after every one.
func FuzzSpaceCheckpoint(f *testing.F) {
	// A block that crosses from an allocated page into one never written,
	// under a checkpoint that is then restored.
	f.Add([]byte(fuzzProg{0}.
		op(fzAlloc).u16(2 * PageSize).b(0).
		op(fzStore8).at(0x1ff0).u32(1).
		op(fzCheckpoint).
		op(fzWriteBlock).at(0x1fc0).u16(0x80).b(0xa5).
		op(fzReadBlock).at(0x1f00).u16(0x200).
		op(fzRestore).
		op(fzReadBlock).at(0x1f00).u16(0x200)))
	// A restore of a page first written after the checkpoint, then a
	// commit of another new page and a restore over it.
	f.Add([]byte(fuzzProg{0}.
		op(fzAlloc).u16(0x800).b(3).
		op(fzCheckpoint).
		op(fzStore32).at(0x2800).u32(0xdeadbeef).
		op(fzRestore).
		op(fzLoad32).at(0x2800).
		op(fzStore32).at(0x3000).u32(7).
		op(fzCommit).
		op(fzStore32).at(0x3000).u32(8).
		op(fzRestore).
		op(fzLoad32).at(0x3000)))
	// A wild store above Brk, the end of the space, and the unmapped page.
	f.Add([]byte(fuzzProg{0}.
		op(fzAlloc).u16(64).b(2).
		op(fzStore32).at(0x3ffc).u32(0x01020304).
		op(fzStore8Odd).at(0x4000).u32(9).
		op(fzLoad32).at(0x3ffc).
		op(fzCheckpoint).
		op(fzStore8).at(0x0ff0).u32(5).
		op(fzStore8).at(0x3ffe).u32(6).
		op(fzRestore).
		op(fzLoad8).at(0x3ffe).
		op(fzRelease)))
	f.Fuzz(func(t *testing.T, program []byte) {
		in := &fuzzInput{in: program}
		size := fuzzSizes[int(in.byte())%len(fuzzSizes)]
		s, r := NewSpace(size), newRefSpace(size)
		var ck *Checkpoint
		for step := 0; step < 256 && !in.done(); step++ {
			code := in.byte() % fzOps
			var got, want uint64
			var gerr, werr error
			switch code {
			case fzAlloc:
				n, align := int(in.u16())%(3*PageSize), 1<<(in.byte()%7)
				ga, e1 := s.Alloc(n, align)
				wa, e2 := r.alloc(n, align)
				got, want, gerr, werr = uint64(ga), uint64(wa), e1, e2
			case fzLoad8:
				a := in.addr(r)
				v, e1 := s.Load8(a)
				w, e2 := r.load("load8", a, 1)
				got, want, gerr, werr = uint64(v), uint64(w), e1, e2
			case fzLoad8Odd:
				a := in.addr(r) | 1
				v, e1 := s.Load8(a)
				w, e2 := r.load("load8", a, 1)
				got, want, gerr, werr = uint64(v), uint64(w), e1, e2
			case fzLoad32:
				a := in.addr(r)
				v, e1 := s.Load32(a)
				w, e2 := r.load("load32", a, 4)
				got, want, gerr, werr = uint64(v), uint64(w), e1, e2
			case fzStore8:
				a, v := in.addr(r), in.u32()
				gerr, werr = s.Store8(a, uint8(v)), r.store("store8", a, 1, v)
			case fzStore8Odd:
				a, v := in.addr(r)|1, in.u32()
				gerr, werr = s.Store8(a, uint8(v)), r.store("store8", a, 1, v)
			case fzStore32:
				a, v := in.addr(r), in.u32()
				gerr, werr = s.Store32(a, v), r.store("store32", a, 4, v)
			case fzReadBlock:
				a, n := in.addr(r), int(in.u16())%(3*PageSize)
				gb, wb := bytes.Repeat([]byte{0xee}, n), bytes.Repeat([]byte{0xee}, n)
				gerr, werr = s.ReadBlock(a, gb), r.readBlock(a, wb)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("step %d: ReadBlock(%#x, %d) read different bytes", step, a, n)
				}
			case fzWriteBlock:
				a, n, fill := in.addr(r), int(in.u16())%(3*PageSize), in.byte()
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = fill + byte(i)
				}
				gerr, werr = s.WriteBlock(a, buf), r.writeBlock(a, buf)
			case fzCheckpoint:
				ck = s.NewCheckpoint()
				r.newCheckpoint()
			case fzCommit, fzRestore, fzRelease:
				if ck == nil {
					continue // a released checkpoint must not be used
				}
				switch code {
				case fzCommit:
					got, want = uint64(ck.Commit()), uint64(r.commit())
				case fzRestore:
					got, want = uint64(ck.Restore()), uint64(r.restore())
				default:
					ck.Release()
					r.release()
					ck = nil
				}
			}
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d (op %d): got (%#x, %v), reference (%#x, %v)", step, code, got, gerr, want, werr)
			}
			agree(t, step, s, r)
		}
	})
}

// agree fails unless the space's frontier, dirty-page count and every byte
// (with a page that was never written reading as zeros) match the
// reference, and the bytes past the end of a partial last page are zero.
func agree(t *testing.T, step int, s *Space, r *refSpace) {
	t.Helper()
	if s.Brk() != r.brk {
		t.Fatalf("step %d: Brk = %#x, reference %#x", step, s.Brk(), r.brk)
	}
	if got, want := dirtyPages(s), len(r.dirty); got != want {
		t.Fatalf("step %d: dirty pages = %d, reference %d", step, got, want)
	}
	if zeroPage != ([PageSize]byte{}) {
		t.Fatalf("step %d: the shared zero page was written", step)
	}
	for p, pg := range s.pages {
		if pg == nil {
			pg = &zeroPage
		}
		lo := p * PageSize
		n := min(PageSize, len(r.data)-lo)
		if !bytes.Equal(pg[:n], r.data[lo:lo+n]) {
			for i := range n {
				if pg[i] != r.data[lo+i] {
					t.Fatalf("step %d: byte %#x = %#x, reference %#x", step, lo+i, pg[i], r.data[lo+i])
				}
			}
		}
		if !bytes.Equal(pg[n:], zeroPage[n:]) {
			t.Fatalf("step %d: page %d was written past the end of the space", step, p)
		}
	}
}
