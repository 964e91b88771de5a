package cache

import (
	"fmt"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// generalPath is the reference twin's view of a fault process: the same
// process, promising no quiet access, so the L1D takes its general path
// and calls NextAt on every access.
type generalPath struct{ fault.Process }

func (generalPath) Quiet() int64 { return 0 }

// fastPathTwin is one side of the fast-path oracle: a hierarchy and the
// fault process behind its L1D, kept for the regime's own counters.
type fastPathTwin struct {
	h     *Hierarchy
	burst *fault.Burst
	stuck *fault.StuckAt
}

// newFastPathTwin builds one twin for configuration kind: kind%3 picks
// the regime (paper, burst, stuck-at), kind/3%3 the detection scheme,
// kind/9%3 the strike count, kind/27%2 sub-block recovery and kind/54%2
// a two-way L1D in place of the direct-mapped one. Every twin arms line
// disable, runs at a fault scale that faults every few dozen accesses at
// Cr 0.5, and starts there with injection on. The reference twin wraps
// its process in generalPath.
func newFastPathTwin(t *testing.T, kind uint8, reference bool) *fastPathTwin {
	t.Helper()
	tw := &fastPathTwin{}
	rng := fault.NewRNG(11)
	var proc fault.Process
	switch kind % 3 {
	case 1:
		tw.burst = fault.NewBurst(fault.NewModel(300), rng.Fork(0xfa17), 32,
			fault.BurstParams{MeanGoodAccesses: 200, MeanBadAccesses: 50, BadMultiplier: 30})
		proc = tw.burst
	case 2:
		inner := fault.NewInjector(fault.NewModel(1000), rng.Fork(0xfa17), 32)
		tw.stuck = fault.NewStuckAt(inner, rng.Fork(0x57ac), DefaultL1D.SizeBytes/4, fault.DefaultStuckAtParams())
		proc = tw.stuck
	default:
		proc = fault.NewInjector(fault.NewModel(1000), rng.Fork(0xfa17), 32)
	}
	if reference {
		proc = generalPath{proc}
	}
	var hc HierarchyConfig
	if kind/54%2 == 1 {
		hc.L1D = Config{SizeBytes: 4096, BlockSize: 32, Assoc: 2, Latency: 2}
	}
	det := []Detection{DetectionNone, DetectionParity, DetectionECC}[kind/3%3]
	h, err := NewHierarchyWith(simmem.NewSpace(oracleSpace), proc, det, 1+int(kind/9%3), hc)
	if err != nil {
		t.Fatal(err)
	}
	h.L1D.SetSubBlock(kind/27%2 == 1)
	h.L1D.SetLineDisable(2, 512)
	h.L1D.SetCycleTime(0.5)
	proc.SetEnabled(true)
	tw.h = h
	return tw
}

// diverged returns the first measurement on which the twins disagree, or
// "" when every one agrees bit for bit.
func (a *fastPathTwin) diverged(b *fastPathTwin) string {
	x, y := a.h, b.h
	switch {
	case x.L1D.Stats != y.L1D.Stats || x.L1I.Stats != y.L1I.Stats || x.L2.Stats != y.L2.Stats || x.Mem.Stats != y.Mem.Stats:
		return fmt.Sprintf("stats: L1D %+v/%+v L1I %+v/%+v L2 %+v/%+v mem %+v/%+v",
			x.L1D.Stats, y.L1D.Stats, x.L1I.Stats, y.L1I.Stats, x.L2.Stats, y.L2.Stats, x.Mem.Stats, y.Mem.Stats)
	case x.L1D.Recovery != y.L1D.Recovery:
		return fmt.Sprintf("recovery %+v/%+v", x.L1D.Recovery, y.L1D.Recovery)
	case x.L1D.Cycles != y.L1D.Cycles || x.L1I.Cycles != y.L1I.Cycles || x.Mem.Cycles != y.Mem.Cycles:
		return fmt.Sprintf("cycles: L1D %v/%v L1I %v/%v mem %v/%v",
			x.L1D.Cycles, y.L1D.Cycles, x.L1I.Cycles, y.L1I.Cycles, x.Mem.Cycles, y.Mem.Cycles)
	case x.L1D.Breakdown != y.L1D.Breakdown:
		return fmt.Sprintf("breakdown %+v/%+v", x.L1D.Breakdown, y.L1D.Breakdown)
	case x.L1D.Energy != y.L1D.Energy:
		return fmt.Sprintf("energy %+v/%+v", x.L1D.Energy, y.L1D.Energy)
	case x.L1D.DisabledLines() != y.L1D.DisabledLines():
		return fmt.Sprintf("disabled lines %d/%d", x.L1D.DisabledLines(), y.L1D.DisabledLines())
	case a.burst != nil && a.burst.Episodes != b.burst.Episodes:
		return fmt.Sprintf("burst episodes %d/%d", a.burst.Episodes, b.burst.Episodes)
	case a.stuck != nil && (a.stuck.PermanentHits != b.stuck.PermanentHits || a.stuck.IntermittentHits != b.stuck.IntermittentHits):
		return fmt.Sprintf("stuck-at hits %d+%d/%d+%d", a.stuck.PermanentHits, a.stuck.IntermittentHits,
			b.stuck.PermanentHits, b.stuck.IntermittentHits)
	}
	return ""
}

// FuzzL1DFastPath is the differential oracle of the L1D's access path.
// Twin A runs the production path; twin B runs the same operations over
// an identically seeded fault process that it reaches only through NextAt
// on every access. After every operation both must return the same value
// and error and hold bit-identical statistics, recovery counts, cycles,
// attribution and energy in every level; after the last one, and after
// every restore, their tables must agree frame for frame.
func FuzzL1DFastPath(f *testing.F) {
	for kind := uint8(0); kind < 108; kind += 7 {
		f.Add(kind, oracleProgram(uint64(kind)+1, oracleOps))
	}
	f.Fuzz(func(t *testing.T, kind uint8, program []byte) {
		a, b := newFastPathTwin(t, kind, false), newFastPathTwin(t, kind, true)
		crs := [4]float64{0.25, 0.5, 0.75, 1}
		injecting := true
		var snapA, snapB *Snapshot
		var prev simmem.Addr = simmem.PageBase
		dmaBuf := make([]byte, 256)
		r := &opReader{in: program}
		addr := func() simmem.Addr {
			m := r.byte()
			switch m & 15 {
			case 0: // anywhere in the space: misses
				prev = simmem.Addr(uint32(r.byte())<<10 | uint32(r.byte())<<2)
			case 1, 2, 3, 4, 5, 6, 7, 8, 9: // the last line again: hits
				prev += simmem.Addr(int32(int8(r.byte())) / 32 * 4)
			default: // the neighbouring lines
				prev += simmem.Addr(int32(int8(r.byte())) / 8 * 4)
			}
			if prev < simmem.PageBase || prev > oracleSpace-4 {
				prev = simmem.PageBase + prev%(oracleSpace-simmem.PageBase-4)
			}
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
			case 0, 1, 2, 3:
				x := addr()
				va, ea = a.h.L1D.Load32(x)
				vb, eb = b.h.L1D.Load32(x)
			case 4, 5:
				x, v := addr(), word()
				ea, eb = a.h.L1D.Store32(x, v), b.h.L1D.Store32(x, v)
			case 6, 7:
				x := addr()
				x8a, e1 := a.h.L1D.Load8(x)
				x8b, e2 := b.h.L1D.Load8(x)
				va, vb, ea, eb = uint32(x8a), uint32(x8b), e1, e2
			case 8:
				x, v := addr(), r.byte()
				ea, eb = a.h.L1D.Store8(x, v), b.h.L1D.Store8(x, v)
			case 9:
				x := addr()
				ea, eb = a.h.L1I.Fetch(x), b.h.L1I.Fetch(x)
			case 10:
				x, n := addr(), 1+int(r.byte())%len(dmaBuf)
				for i := range dmaBuf[:n] {
					dmaBuf[i] = byte(op + i)
				}
				if n%2 == 0 {
					ea, eb = a.h.DMA(x, dmaBuf[:n]), b.h.DMA(x, dmaBuf[:n])
				} else {
					ea, eb = a.h.CoherentDMA(x, dmaBuf[:n]), b.h.CoherentDMA(x, dmaBuf[:n])
				}
			case 11: // a step down or up the cycle-time ladder
				cr := crs[r.byte()%4]
				a.h.L1D.SetCycleTime(cr)
				b.h.L1D.SetCycleTime(cr)
			case 12: // injection off, or back on
				injecting = !injecting
				a.h.L1D.SetInjection(injecting)
				b.h.L1D.SetInjection(injecting)
			case 13:
				frac := float64(r.byte()%4) / 64
				a.h.L1D.ForceDisable(frac)
				b.h.L1D.ForceDisable(frac)
			case 14:
				snapA, snapB = a.h.Snapshot(snapA), b.h.Snapshot(snapB)
			case 15:
				if snapA == nil {
					continue
				}
				a.h.RestoreSnapshot(snapA)
				b.h.RestoreSnapshot(snapB)
				if d := diffTables(&a.h.L1D.tab, &b.h.L1D.tab); d != "" {
					t.Fatalf("op %d: L1D after restore: %s", op, d)
				}
			}
			if va != vb || fmt.Sprint(ea) != fmt.Sprint(eb) {
				t.Fatalf("op %d (code %d): (%#x, %v) vs (%#x, %v)", op, code, va, ea, vb, eb)
			}
			if d := a.diverged(b); d != "" {
				t.Fatalf("op %d (code %d): %s", op, code, d)
			}
		}
		for _, lv := range []struct {
			name string
			x, y *table
		}{{"L1D", &a.h.L1D.tab, &b.h.L1D.tab}, {"L1I", &a.h.L1I.tab, &b.h.L1I.tab}, {"L2", &a.h.L2.tab, &b.h.L2.tab}} {
			if d := diffTables(lv.x, lv.y); d != "" {
				t.Fatalf("%s at the end: %s", lv.name, d)
			}
		}
	})
}
