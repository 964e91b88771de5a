package radix

import (
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/packet"
	"clumsy/internal/simmem"
)

func newTable(t *testing.T) (*Table, *simmem.Space) {
	t.Helper()
	space := simmem.NewSpace(1 << 22)
	tab, err := New(space, space)
	if err != nil {
		t.Fatal(err)
	}
	return tab, space
}

func TestEmptyTableLookup(t *testing.T) {
	tab, space := newTable(t)
	res, err := tab.Lookup(space, 0x0a000001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextHop != 0 {
		t.Fatal("lookup in empty table found a route")
	}
	if res.Steps != 1 {
		t.Fatalf("steps = %d, want 1 (root only)", res.Steps)
	}
}

func TestInsertAndExactLookup(t *testing.T) {
	tab, space := newTable(t)
	p := packet.Prefix{Addr: 0xc0a80000, Len: 16}
	if err := tab.Insert(space, p, 42, 3); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Lookup(space, 0xc0a81234, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextHop != 42 || res.Iface != 3 || res.PrefixLen != 16 {
		t.Fatalf("result %+v", res)
	}
	// An address outside the prefix misses.
	res, err = tab.Lookup(space, 0xc0a90000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextHop != 0 {
		t.Fatal("lookup outside prefix found a route")
	}
}

func TestLongestPrefixMatch(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0x0a000000, Len: 8}, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(space, packet.Prefix{Addr: 0x0a010000, Len: 16}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(space, packet.Prefix{Addr: 0x0a010100, Len: 24}, 3, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		want uint32
	}{
		{0x0a020202, 1}, // only /8 matches
		{0x0a01ff00, 2}, // /16
		{0x0a010164, 3}, // /24 wins
	}
	for _, c := range cases {
		res, err := tab.Lookup(space, c.addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NextHop != c.want {
			t.Errorf("lookup %#x: %+v, want hop %d", c.addr, res, c.want)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0, Len: 0}, 99, 9); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Lookup(space, 0xdeadbeef, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextHop != 99 || res.PrefixLen != 0 {
		t.Fatalf("default route not matched: %+v", res)
	}
}

func TestHostRoute(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0x01020304, Len: 32}, 7, 1); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Lookup(space, 0x01020304, nil)
	if err != nil || res.NextHop != 7 {
		t.Fatalf("host route: %+v, %v", res, err)
	}
	res, _ = tab.Lookup(space, 0x01020305, nil)
	if res.NextHop != 0 {
		t.Fatal("host route matched wrong address")
	}
}

func TestOnNodeVisitsEveryStep(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0x80000000, Len: 4}, 1, 1); err != nil {
		t.Fatal(err)
	}
	visited := 0
	res, err := tab.Lookup(space, 0x80000001, func(a simmem.Addr) error {
		visited++
		if a == 0 {
			t.Fatal("visited null node")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != res.Steps {
		t.Fatalf("visited %d, steps %d", visited, res.Steps)
	}
	if res.Steps != 5 { // root + 4 levels
		t.Fatalf("steps = %d, want 5", res.Steps)
	}
}

func TestBulkInsertLookupAgainstReference(t *testing.T) {
	tab, space := newTable(t)
	rng := fault.NewRNG(17)
	prefixes := packet.GeneratePrefixes(300, rng)
	for i, p := range prefixes {
		if err := tab.Insert(space, p, uint32(i+1), uint32(i%8)); err != nil {
			t.Fatal(err)
		}
	}
	// Reference longest-prefix match in host memory; 0 is no route.
	ref := func(addr uint32) uint32 {
		best, bestLen := uint32(0), -1
		for i, p := range prefixes {
			if addr&p.Mask() == p.Addr&p.Mask() && p.Len > bestLen {
				best, bestLen = uint32(i+1), p.Len
			}
		}
		return best
	}
	for i := 0; i < 2000; i++ {
		addr := rng.Uint32()
		want := ref(addr)
		res, err := tab.Lookup(space, addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NextHop != want {
			t.Fatalf("addr %#x: next hop %d, want %d", addr, res.NextHop, want)
		}
	}
}

func TestCorruptPointerIsSilentDeadEnd(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0xff000000, Len: 8}, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the root's right-child pointer to an address outside the
	// arena: the checked walk treats it as a dead end (a wrong result, not
	// a crash), as the pointer-validating FreeBSD code would.
	if err := space.Store32(tab.root+offRight, 0xf0000000); err != nil {
		t.Fatal(err)
	}
	res, err := tab.Lookup(space, 0xff000001, nil)
	if err != nil {
		t.Fatalf("checked walk must not trap: %v", err)
	}
	if res.NextHop != 0 {
		t.Fatal("lookup through severed subtree should miss")
	}
}

func TestCorruptPointerInsideArenaReadsGarbage(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0xff000000, Len: 8}, 7, 1); err != nil {
		t.Fatal(err)
	}
	// Point the root's right child at a plausible-but-wrong place inside
	// the arena (the root's own flags words): the walk continues over
	// garbage and terminates via the stored bit index or the watchdog.
	if err := space.Store32(tab.root+offRight, tab.root+8); err != nil {
		t.Fatal(err)
	}
	_, err := tab.Lookup(space, 0xff000001, nil)
	if err != nil && err != ErrLoop {
		t.Fatalf("in-arena garbage walk should end silently or via watchdog, got %v", err)
	}
}

func TestPointerCycleHitsWatchdog(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0xff000000, Len: 8}, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Point the root's right child back at the root: a cycle.
	if err := space.Store32(tab.root+offRight, tab.root); err != nil {
		t.Fatal(err)
	}
	_, err := tab.Lookup(space, 0xff000001, nil)
	if err != ErrLoop {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
}

func TestInsertRejectsBadLength(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0, Len: 33}, 1, 1); err == nil {
		t.Fatal("prefix length 33 should be rejected")
	}
}

func TestNodeCountGrowth(t *testing.T) {
	tab, space := newTable(t)
	// Nodes are the only allocations after the root, packed nodeSize apart.
	nodes := func() int { return int(space.Brk()-tab.root) / nodeSize }
	if n := nodes(); n != 1 {
		t.Fatalf("fresh table has %d nodes", n)
	}
	if err := tab.Insert(space, packet.Prefix{Addr: 0x80000000, Len: 8}, 1, 1); err != nil {
		t.Fatal(err)
	}
	if n := nodes(); n != 9 { // root + 8 levels
		t.Fatalf("nodes = %d, want 9", n)
	}
	// Inserting a sibling that shares 7 bits adds just one node.
	if err := tab.Insert(space, packet.Prefix{Addr: 0x81000000, Len: 8}, 2, 1); err != nil {
		t.Fatal(err)
	}
	if n := nodes(); n != 10 {
		t.Fatalf("nodes = %d, want 10", n)
	}
}

// failingMem wraps a Space and fails the n-th access, to exercise Insert's
// error-propagation paths.
type failingMem struct {
	*simmem.Space
	countdown int
}

var errInjected = &simmem.AccessError{Op: "test", Reason: "injected"}

func (f *failingMem) tick() error {
	f.countdown--
	if f.countdown == 0 {
		return errInjected
	}
	return nil
}

func (f *failingMem) Load32(a simmem.Addr) (uint32, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.Space.Load32(a)
}

func (f *failingMem) Store32(a simmem.Addr, v uint32) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Space.Store32(a, v)
}

func TestInsertPropagatesMemoryErrors(t *testing.T) {
	// Fail each successive access position until the insert completes;
	// every failure must surface as an error, never a panic or silent
	// partial success masquerading as ok.
	for n := 1; n < 200; n++ {
		space := simmem.NewSpace(1 << 20)
		tab, err := New(space, space)
		if err != nil {
			t.Fatal(err)
		}
		fm := &failingMem{Space: space, countdown: n}
		err = tab.Insert(fm, packet.Prefix{Addr: 0xc0a80000, Len: 16}, 1, 2)
		if err == nil {
			// The insert finished before the failing access: done.
			return
		}
	}
	t.Fatal("insert never completed within 200 accesses")
}

func TestInsertRebuildsThroughCorruptLink(t *testing.T) {
	tab, space := newTable(t)
	if err := tab.Insert(space, packet.Prefix{Addr: 0x80000000, Len: 8}, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the root's right child to an out-of-arena pointer, then
	// insert a prefix that must pass through it: Insert should rebuild the
	// subtree instead of chasing the bogus pointer.
	if err := space.Store32(tab.root+offRight, 0xf0000000); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(space, packet.Prefix{Addr: 0x81000000, Len: 8}, 2, 1); err != nil {
		t.Fatalf("insert through corrupt link failed: %v", err)
	}
	res, err := tab.Lookup(space, 0x81000001, nil)
	if err != nil || res.NextHop != 2 {
		t.Fatalf("rebuilt subtree lookup: %+v, %v", res, err)
	}
}
