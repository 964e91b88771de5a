package cache

import (
	"fmt"
	"slices"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// Geometry of the checkpoint oracle's address space: larger than the L2,
// so fills evict dirty L2 lines, and addressed over a range that also
// covers the unmapped first page and the 16 KiB past the end of the
// space, where fills fail after a victim's write-back. The space ends
// part-way through the last L2 line, so the fills of the mapped L1D lines
// inside it fail too.
const (
	oracleSpace = 240<<10 - 32
	oracleRange = 256 << 10
)

// naiveTable is the oracle's deliberately simple checkpoint of one table:
// its own copy of every frame's bookkeeping, strike state, payload and
// error patterns, and of the LRU clock.
type naiveTable struct {
	lines   []line
	strikes []strikeState
	data    []byte
	flip    []uint32
	tick    uint64
}

func naiveCopy(t *table) naiveTable {
	return naiveTable{
		lines:   append([]line(nil), t.lines...),
		strikes: append([]strikeState(nil), t.strikes...),
		data:    append([]byte(nil), t.data...),
		flip:    append([]uint32(nil), t.flip...),
		tick:    t.tick,
	}
}

func (n naiveTable) restoreInto(t *table) {
	copy(t.lines, n.lines)
	copy(t.strikes, n.strikes)
	copy(t.data, n.data)
	copy(t.flip, n.flip)
	t.tick = n.tick
}

// diffTables returns the first difference between two tables of the same
// geometry, or "" when they agree frame for frame.
func diffTables(a, b *table) string {
	if a.tick != b.tick {
		return fmt.Sprintf("tick %d vs %d", a.tick, b.tick)
	}
	bs := a.cfg.BlockSize
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Sprintf("frame %d: %+v vs %+v", i, a.lines[i], b.lines[i])
		}
		if a.strikes != nil && a.strikes[i] != b.strikes[i] {
			return fmt.Sprintf("frame %d: strikes %+v vs %+v", i, a.strikes[i], b.strikes[i])
		}
		if !slices.Equal(a.lineBytes(i), b.lineBytes(i)) {
			return fmt.Sprintf("frame %d: data differs", i)
		}
		if a.flip != nil && !slices.Equal(a.flip[i*bs/4:(i+1)*bs/4], b.flip[i*bs/4:(i+1)*bs/4]) {
			return fmt.Sprintf("frame %d: error patterns differ", i)
		}
	}
	return ""
}

// naiveHierarchy is the oracle's checkpoint of a whole hierarchy; it keeps
// the disabled-frame count itself rather than recounting it.
type naiveHierarchy struct {
	l1d, l2   naiveTable
	l1i       uint32
	deadLines int
}

func naiveSnapshot(h *Hierarchy) *naiveHierarchy {
	return &naiveHierarchy{l1d: naiveCopy(&h.L1D.tab), l2: naiveCopy(&h.L2.tab),
		l1i: h.L1I.resident, deadLines: h.L1D.deadLines}
}

func (n *naiveHierarchy) restoreInto(h *Hierarchy) {
	n.l1d.restoreInto(&h.L1D.tab)
	n.l2.restoreInto(&h.L2.tab)
	h.L1I.resident = n.l1i
	h.L1D.deadLines = n.deadLines
}

// oracleHierarchy builds one twin of the oracle. kind%3 picks the
// scheme: 0 is parity two-strike over the burst process, 1 ECC over a
// 16 KiB L2 (which the oracle's accesses keep evicting dirty), 2
// sub-block recovery. An odd kind/3 makes the L1D two-way and the L2
// direct-mapped, so each level is checked under both hit semantics: a
// set-associative hit stamps its frame, a direct-mapped hit changes
// nothing. Every kind arms line disable and runs over-clocked at Cr 0.5.
func oracleHierarchy(t *testing.T, kind uint8) *Hierarchy {
	t.Helper()
	var proc fault.Process
	l1d, l2 := DefaultL1D, DefaultL2
	det, strikes := DetectionParity, 2
	switch kind % 3 {
	case 0:
		proc = fault.NewBurst(fault.NewModel(1000), fault.NewRNG(5).Fork(0xfa17), 32,
			fault.BurstParams{MeanGoodAccesses: 400, MeanBadAccesses: 100, BadMultiplier: 40})
	case 1:
		det = DetectionECC
		l2.SizeBytes = 16 << 10
		proc = fault.NewInjector(fault.NewModel(4000), fault.NewRNG(5).Fork(0xfa17), 32)
	default:
		strikes = 1
		proc = fault.NewInjector(fault.NewModel(4000), fault.NewRNG(5).Fork(0xfa17), 32)
	}
	if kind/3%2 == 1 {
		l1d.Assoc = 2
		l2 = Config{SizeBytes: 64 << 10, BlockSize: 64, Assoc: 1, Latency: 15}
	}
	h, err := newHierarchy(simmem.NewSpace(oracleSpace), proc, det, strikes, l1d, l2)
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.SetSubBlock(kind%3 == 2)
	h.L1D.SetLineDisable(2, 512)
	h.L1D.SetCycleTime(0.5)
	proc.SetEnabled(true)
	return h
}

// opReader decodes a fuzz input into operations; once the input is
// exhausted every read returns zero and done reports true.
type opReader struct {
	in []byte
	at int
}

func (r *opReader) byte() byte {
	if r.at >= len(r.in) {
		r.at++
		return 0
	}
	r.at++
	return r.in[r.at-1]
}

func (r *opReader) done() bool { return r.at >= len(r.in) }

// oracleOps caps the operations one input runs, so the fuzzer's grown
// inputs stay as quick to run as the seeds.
const oracleOps = 3000

// oracleProgram generates a seed input of n operations for the corpus.
func oracleProgram(seed uint64, n int) []byte {
	rng := fault.NewRNG(seed)
	out := make([]byte, 0, 6*n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			out = append(out, byte(rng.Uint32()))
		}
	}
	return out
}

// FuzzCacheCheckpoint is the differential oracle of the cache checkpoint.
// Hierarchy A checkpoints through Snapshot/RestoreSnapshot, retaking its
// one restore point or taking a fresh one; its twin B runs the same
// operations over an identically seeded fault process but checkpoints
// through naiveSnapshot, a plain deep copy of every frame, payload, error
// pattern, the LRU clock and the L1I's resident lines. After every
// operation both must return the same value and error and hold the same
// measurements; after every restore their tables and resident lines must
// agree.
func FuzzCacheCheckpoint(f *testing.F) {
	for seed := uint8(0); seed < 12; seed++ { // each kind twice
		f.Add(seed%3+seed/6*3, oracleProgram(uint64(seed)+1, oracleOps))
	}
	f.Fuzz(func(t *testing.T, kind uint8, program []byte) {
		a, b := oracleHierarchy(t, kind), oracleHierarchy(t, kind)
		var snap *Snapshot
		var naive *naiveHierarchy
		var prev simmem.Addr = simmem.PageBase
		dmaBuf := make([]byte, oracleRange)
		r := &opReader{in: program}
		addr := func() simmem.Addr {
			m := r.byte()
			switch m & 15 {
			case 0: // anywhere in the range
				prev = simmem.Addr(uint32(r.byte())<<10 | uint32(r.byte())<<2)
			case 1: // around the end of the space, off the walk
				return oracleSpace + simmem.Addr(int32(int8(r.byte())))
			case 2, 3, 4, 5, 6, 7, 8: // the last line again: hits
				prev += simmem.Addr(int32(int8(r.byte())) / 32 * 4)
			default: // near the last address: neighbouring lines and sets
				prev += simmem.Addr(int32(int8(r.byte())) * 4)
			}
			prev %= oracleRange
			return prev | simmem.Addr(m>>6)
		}
		word := func() uint32 {
			return uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
		}
		for op := 0; op < oracleOps && !r.done(); op++ {
			code := r.byte() % 16
			var va, vb uint32
			var ea, eb error
			switch code {
			case 0, 1, 15:
				x := addr()
				va, ea = a.L1D.Load32(x)
				vb, eb = b.L1D.Load32(x)
			case 2, 3:
				x, v := addr(), word()
				ea, eb = a.L1D.Store32(x, v), b.L1D.Store32(x, v)
			case 4, 6: // 4: a byte at a non-zero offset in its word
				x := addr()
				if code == 4 {
					x |= 1
				}
				x8a, e1 := a.L1D.Load8(x)
				x8b, e2 := b.L1D.Load8(x)
				va, vb, ea, eb = uint32(x8a), uint32(x8b), e1, e2
			case 5, 7: // 5: a read-modify-write at a non-zero offset
				x, v := addr(), r.byte()
				if code == 5 {
					x |= 1
				}
				ea, eb = a.L1D.Store8(x, v), b.L1D.Store8(x, v)
			case 8:
				x, k := addr(), 1+int(r.byte()%16)
				ea, eb = a.L1I.Fetch(x, k), b.L1I.Fetch(x, k)
			case 9, 10:
				x, k := addr(), r.byte()
				n := 1 + int(k)%128
				if k >= 0xf0 && x < oracleSpace {
					// Run past the end of the space: the write fails, after
					// a coherent DMA has flushed every dirty line from x on.
					n = oracleSpace - int(x) + 1
				}
				for i := range dmaBuf[:n] {
					dmaBuf[i] = byte(op + i)
				}
				if code == 9 {
					ea, eb = a.DMA(x, dmaBuf[:n]), b.DMA(x, dmaBuf[:n])
				} else {
					ea, eb = a.CoherentDMA(x, dmaBuf[:n]), b.CoherentDMA(x, dmaBuf[:n])
				}
			case 11:
				frac := float64(r.byte()%4) / 64
				a.L1D.ForceDisable(frac)
				b.L1D.ForceDisable(frac)
			case 12: // over-clock further, then drop back: re-enables dead frames
				a.L1D.SetCycleTime(0.25)
				b.L1D.SetCycleTime(0.25)
				a.L1D.SetCycleTime(0.5)
				b.L1D.SetCycleTime(0.5)
			case 13:
				if r.byte()&4 != 0 {
					snap = nil // a fresh snapshot
				}
				snap = a.Snapshot(snap)
				naive = naiveSnapshot(b)
			case 14:
				if snap == nil {
					continue
				}
				a.RestoreSnapshot(snap)
				naive.restoreInto(b)
				for _, lv := range []struct {
					name string
					x, y *table
				}{{"L1D", &a.L1D.tab, &b.L1D.tab}, {"L2", &a.L2.tab, &b.L2.tab}} {
					if d := diffTables(lv.x, lv.y); d != "" {
						t.Fatalf("op %d: %s after restore: %s", op, lv.name, d)
					}
				}
				if a.L1I.resident != b.L1I.resident {
					t.Fatalf("op %d: L1I resident lines %#x vs %#x after restore", op, a.L1I.resident, b.L1I.resident)
				}
				if a.L1D.DisabledLines() != b.L1D.DisabledLines() {
					t.Fatalf("op %d: DisabledLines %d vs %d after restore", op, a.L1D.DisabledLines(), b.L1D.DisabledLines())
				}
			}
			if va != vb || fmt.Sprint(ea) != fmt.Sprint(eb) {
				t.Fatalf("op %d (code %d): (%#x, %v) vs (%#x, %v)", op, code, va, ea, vb, eb)
			}
			if a.L1D.Stats != b.L1D.Stats || a.L1I.Stats != b.L1I.Stats || a.L2.Stats != b.L2.Stats ||
				a.Mem.Stats != b.Mem.Stats || a.L1D.Recovery != b.L1D.Recovery {
				t.Fatalf("op %d (code %d): stats diverge: L1D %+v/%+v L2 %+v/%+v recovery %+v/%+v",
					op, code, a.L1D.Stats, b.L1D.Stats, a.L2.Stats, b.L2.Stats, a.L1D.Recovery, b.L1D.Recovery)
			}
			if a.L1D.Cycles != b.L1D.Cycles || a.L1I.Cycles != b.L1I.Cycles || a.L1D.Breakdown != b.L1D.Breakdown {
				t.Fatalf("op %d (code %d): cycles diverge: %v/%v %+v/%+v",
					op, code, a.L1D.Cycles, b.L1D.Cycles, a.L1D.Breakdown, b.L1D.Breakdown)
			}
		}
	})
}
