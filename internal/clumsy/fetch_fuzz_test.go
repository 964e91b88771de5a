package clumsy

import (
	"testing"

	"clumsy/internal/cache"
	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// naiveFetcher is the reference twin of the fetch oracle: the engine's
// Step as one fetch per 8 instructions, over an L1I modelled as the
// 4 KB direct-mapped array of 32-byte lines it stands for, a tag per set
// of 128 filled from the twin's own L2.
type naiveFetcher struct {
	h          *cache.Hierarchy
	codeBase   simmem.Addr
	instrs     uint64
	curBlock   int
	sinceFetch int
	valid      [128]bool
	tags       [128]simmem.Addr
	stats      cache.Stats
	cycles     float64
	buf        [32]byte
}

func (f *naiveFetcher) Step(block, n int) error {
	f.instrs += uint64(n)
	if block != f.curBlock {
		f.curBlock = block
		f.sinceFetch = 0
		if err := f.fetch(block); err != nil {
			return err
		}
	}
	f.sinceFetch += n
	for f.sinceFetch >= instrsPerFetch {
		f.sinceFetch -= instrsPerFetch
		if err := f.fetch(block); err != nil {
			return err
		}
	}
	return nil
}

func (f *naiveFetcher) fetch(block int) error {
	pc := f.codeBase + simmem.Addr(block*32)
	f.stats.Reads++
	set, tag := pc>>5&127, pc>>5
	if f.valid[set] && f.tags[set] == tag {
		return nil
	}
	f.stats.ReadMisses++
	cyc, err := f.h.L2.FetchLine(pc&^31, f.buf[:])
	if err != nil {
		return err
	}
	f.cycles += cyc
	f.valid[set], f.tags[set] = true, tag
	return nil
}

// fetchTwin builds a hierarchy and the engine over it. The L2 has 256 sets
// of 128-byte lines, so loads 32 KiB apart from a code line share its set;
// the data region holds six such strides, which evict code lines from the
// 4-way L2.
func fetchTwin(t *testing.T) (*engine, *cache.Hierarchy) {
	t.Helper()
	inj := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)
	inj.SetEnabled(false)
	h, err := cache.NewHierarchy(simmem.NewSpace(1<<20), inj, cache.DetectionNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(h)
	if err != nil {
		t.Fatal(err)
	}
	h.Space.MustAlloc(7*32<<10, 128)
	return eng, h
}

// FuzzEngineFetch is the differential oracle of the batched instruction
// fetch. Twin A is the engine, which makes one L1I call per step over the
// resident mask; twin B is naiveFetcher on an identical hierarchy. The
// operations are steps (blocks mostly 0-7, 0 to 40 instructions), L1D
// loads that evict code lines from the L2, snapshots and restores, which
// twin B takes of its hierarchy and its own tag array. After every
// operation both twins must agree on the L1I's statistics and stall
// cycles, the L2's and memory's statistics, and the instruction count.
func FuzzEngineFetch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 8, 16, 0, 3, 40, 2, 1, 0, 0, 5, 9, 3, 0, 0, 1, 7})
	for seed := uint64(1); seed <= 4; seed++ {
		rng := fault.NewRNG(seed)
		prog := make([]byte, 400)
		for i := range prog {
			prog[i] = byte(rng.Uint32())
		}
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		eng, ha := fetchTwin(t)
		ref, hb := fetchTwin(t)
		b := &naiveFetcher{h: hb, codeBase: ref.codeBase, curBlock: -1}
		var snapA, snapB *cache.Snapshot
		var savedValid [128]bool
		var savedTags [128]simmem.Addr
		at := 0
		next := func() byte {
			if at >= len(program) {
				return 0
			}
			at++
			return program[at-1]
		}
		for op := 0; at < len(program); op++ {
			code := next() % 8
			switch code {
			case 0, 1, 2, 3, 4: // a step, mostly in blocks 0-7
				k := next()
				block := int(k % 8)
				if k >= 0xe0 {
					block = int(k % appBlocks)
				}
				n := int(next() % 41)
				ea, eb := eng.Step(block, n), b.Step(block, n)
				if ea != nil || eb != nil {
					t.Fatalf("op %d: Step(%d, %d): %v vs %v", op, block, n, ea, eb)
				}
			case 5: // a load in a code line's L2 set, one to six strides on
				k := next()
				x := eng.codeBase + simmem.Addr(1+int(k%6))<<15 + simmem.Addr(k>>3)*32
				_, ea := ha.L1D.Load32(x)
				_, eb := hb.L1D.Load32(x)
				if ea != nil || eb != nil {
					t.Fatalf("op %d: Load32(%#x): %v vs %v", op, x, ea, eb)
				}
			case 6:
				snapA, snapB = ha.Snapshot(snapA), hb.Snapshot(snapB)
				savedValid, savedTags = b.valid, b.tags
			case 7:
				if snapA == nil {
					continue
				}
				ha.RestoreSnapshot(snapA)
				hb.RestoreSnapshot(snapB)
				b.valid, b.tags = savedValid, savedTags
			}
			switch {
			case ha.L1I.Stats != b.stats || ha.L1I.Cycles != b.cycles:
				t.Fatalf("op %d (code %d): L1I %+v %v cycles, reference %+v %v", op, code, ha.L1I.Stats, ha.L1I.Cycles, b.stats, b.cycles)
			case ha.L2.Stats != hb.L2.Stats || ha.Mem.Stats != hb.Mem.Stats:
				t.Fatalf("op %d (code %d): L2 %+v mem %+v, reference L2 %+v mem %+v", op, code, ha.L2.Stats, ha.Mem.Stats, hb.L2.Stats, hb.Mem.Stats)
			case eng.instrs != b.instrs:
				t.Fatalf("op %d (code %d): %d instructions, reference %d", op, code, eng.instrs, b.instrs)
			}
		}
	})
}
