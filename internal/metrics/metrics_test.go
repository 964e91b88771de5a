package metrics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// record builds a recorder with the given init values and per-packet
// observation sets.
func record(init []uint64, packets [][]uint64) *Recorder {
	r := NewRecorder()
	for i, v := range init {
		r.Observe("init", v)
		_ = i
	}
	r.BeginPackets()
	for _, pkt := range packets {
		for _, v := range pkt {
			r.Observe("val", v)
		}
		r.EndPacket()
	}
	return r
}

func TestIdenticalRunsNoErrors(t *testing.T) {
	g := record([]uint64{1, 2}, [][]uint64{{10, 20}, {30}})
	f := record([]uint64{1, 2}, [][]uint64{{10, 20}, {30}})
	rep := Compare(g, f)
	if rep.PacketsWith != 0 || rep.Fatal || rep.InitMismatch {
		t.Fatalf("identical runs reported errors: %+v", rep)
	}
	if rep.Fallibility() != 1 {
		t.Fatalf("fallibility = %v, want 1", rep.Fallibility())
	}
	if rep.FatalProbability() != 0 {
		t.Fatalf("fatal probability = %v, want 0", rep.FatalProbability())
	}
}

func TestValueMismatchCounted(t *testing.T) {
	g := record(nil, [][]uint64{{10}, {20}, {30}, {40}})
	f := record(nil, [][]uint64{{10}, {99}, {30}, {40}})
	rep := Compare(g, f)
	if rep.PacketsWith != 1 {
		t.Fatalf("packets with error = %d, want 1", rep.PacketsWith)
	}
	if got := rep.Fallibility(); got != 1.25 {
		t.Fatalf("fallibility = %v, want 1.25", got)
	}
	if p := rep.ErrorProbability("val"); p != 0.25 {
		t.Fatalf("per-structure probability = %v, want 0.25", p)
	}
}

func TestInitMismatch(t *testing.T) {
	g := record([]uint64{1, 2, 3}, [][]uint64{{5}})
	f := record([]uint64{1, 9, 3}, [][]uint64{{5}})
	rep := Compare(g, f)
	if !rep.InitMismatch {
		t.Fatal("init mismatch not detected")
	}
	if p := rep.ErrorProbability(InitErrorName); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("init error probability = %v, want 1/3", p)
	}
	if rep.PacketsWith != 0 {
		t.Fatal("init errors must not count as packet errors")
	}
}

func TestShapeDivergence(t *testing.T) {
	g := record(nil, [][]uint64{{1, 2}, {3, 4}})
	f := record(nil, [][]uint64{{1, 2, 7}, {3, 4}}) // extra observation
	rep := Compare(g, f)
	if rep.PacketsWith != 1 {
		t.Fatalf("shape divergence should mark the packet, got %d", rep.PacketsWith)
	}
	if rep.ErrorProbability(ShapeErrorName) == 0 {
		t.Fatal("shape error not recorded")
	}
}

func TestNameDivergence(t *testing.T) {
	g := NewRecorder()
	g.BeginPackets()
	g.Observe("a", 1)
	g.EndPacket()
	f := NewRecorder()
	f.BeginPackets()
	f.Observe("b", 1)
	f.EndPacket()
	rep := Compare(g, f)
	if rep.PacketsWith != 1 || rep.ErrorProbability(ShapeErrorName) == 0 {
		t.Fatalf("diverging names should be a shape error: %+v", rep)
	}
}

func TestFatalRun(t *testing.T) {
	g := record(nil, [][]uint64{{1}, {2}, {3}, {4}, {5}})
	f := record(nil, [][]uint64{{1}, {2}}) // died after two packets
	rep := Compare(g, f)
	if !rep.Fatal {
		t.Fatal("short run should be fatal")
	}
	if rep.Processed != 2 {
		t.Fatalf("processed = %d", rep.Processed)
	}
	if p := rep.FatalProbability(); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("fatal probability = %v, want 1/3", p)
	}
}

func TestFallibilityOfDeadRun(t *testing.T) {
	g := record(nil, [][]uint64{{1}})
	f := record(nil, nil)
	rep := Compare(g, f)
	if rep.Fallibility() != 2 {
		t.Fatalf("fallibility of a run that processed nothing = %v, want 2", rep.Fallibility())
	}
}

func TestStructureNamesSorted(t *testing.T) {
	g := NewRecorder()
	g.BeginPackets()
	g.Observe("zeta", 1)
	g.Observe("alpha", 2)
	g.EndPacket()
	f := NewRecorder()
	f.BeginPackets()
	f.Observe("zeta", 1)
	f.Observe("alpha", 2)
	f.EndPacket()
	rep := Compare(g, f)
	// Every packet carries a control-flow entry alongside the observed
	// structures, and the list comes back sorted.
	names := rep.StructureNames()
	if len(names) != 3 || names[0] != "alpha" || names[1] != ShapeErrorName || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestEDFDefaults(t *testing.T) {
	e := DefaultExponents()
	if e.K != 1 || e.M != 2 || e.N != 2 {
		t.Fatalf("default exponents %+v, want k=1 m=2 n=2", e)
	}
	got := e.EDF(2, 3, 1.5)
	want := 2.0 * 9 * 2.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EDF = %v, want %v", got, want)
	}
}

func TestEDFMonotoneProperty(t *testing.T) {
	e := DefaultExponents()
	f := func(a, b, c uint8) bool {
		en, d, fb := 1+float64(a), 1+float64(b), 1+float64(c)/255
		base := e.EDF(en, d, fb)
		return e.EDF(en*1.1, d, fb) > base &&
			e.EDF(en, d*1.1, fb) > base &&
			e.EDF(en, d, fb*1.1) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDFPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative energy")
		}
	}()
	DefaultExponents().EDF(-1, 1, 1)
}

func TestEDFCustomExponents(t *testing.T) {
	// Fallibility weighted harder: errors dominate.
	e := EDFExponents{K: 1, M: 1, N: 4}
	if e.EDF(1, 1, 2) != 16 {
		t.Fatalf("EDF = %v, want 16", e.EDF(1, 1, 2))
	}
}

// naiveRecorder is the differential reference for Recorder: one fresh
// slice per packet, nothing shared.
type naiveRecorder struct {
	init, cur []Observation
	packets   []PacketRecord
	inInit    bool
}

func (n *naiveRecorder) Observe(name string, v uint64) {
	if n.inInit {
		n.init = append(n.init, Observation{name, v})
		return
	}
	n.cur = append(n.cur, Observation{name, v})
}

func (n *naiveRecorder) EndPacket() {
	n.packets = append(n.packets, PacketRecord{Obs: n.cur})
	n.cur = nil
}

func (n *naiveRecorder) DropPacket() {
	n.cur = nil
	n.packets = append(n.packets, PacketRecord{Dropped: true})
}

func (n *naiveRecorder) recorder() *Recorder {
	return &Recorder{Init: n.init, Packets: n.packets}
}

// recorderScript is a packet sequence for the recorder oracle: how many
// observations each packet makes, and whether it is dropped after making
// them.
type recorderScript []struct {
	obs  int
	drop bool
}

// play drives a recorder through the script. Values depend on salt, so
// two plays with different salts disagree on some observations.
func (s recorderScript) play(r interface {
	Observe(string, uint64)
	EndPacket()
	DropPacket()
}, begin func(), salt uint64) {
	names := []string{"radix-walk", "route-entry", "checksum"}
	r.Observe("table", 7)
	r.Observe("table", 8)
	begin()
	for i, p := range s {
		for j := 0; j < p.obs; j++ {
			v := uint64(i)<<16 | uint64(j)
			if (i+j)%97 == 0 {
				v ^= salt
			}
			r.Observe(names[(i+j)%len(names)], v)
		}
		if p.drop {
			r.DropPacket()
		} else {
			r.EndPacket()
		}
	}
}

// TestRecorderMatchesNaiveRecorder drives the chunked recorder and the
// naive one through a sequence that crosses many chunk boundaries, drops
// packets exactly at a chunk's end, right after a move to a new chunk and
// in the middle of a chunk, and records a packet longer than a chunk.
// Both must give the same observations per packet and the same Compare
// reports, and no packet's observations may share memory with another's.
func TestRecorderMatchesNaiveRecorder(t *testing.T) {
	q := chunkObs / 4
	script := recorderScript{
		{q, false}, {q, false}, {q, false},
		{q, true},             // fills the first chunk exactly, then drops
		{0, false},            // an empty packet
		{q - 5, false},        // leaves 5 free observations in the chunk
		{30, true},            // moves to a new chunk mid-packet, then drops
		{chunkObs - 2, false}, // leaves 2 free
		{2, false},            // ends exactly at the chunk's end
		{1, true},             // drops right after moving to a new chunk
		{chunkObs - 10, false},
		{40, false},               // crosses the boundary and completes
		{2*chunkObs + 500, false}, // longer than a chunk
		{3, false},
	}
	for i := 0; i < 3000; i++ { // about 30 more chunks of mixed packets
		script = append(script, struct {
			obs  int
			drop bool
		}{obs: (i * 7919) % 41, drop: i%9 == 4})
	}

	chunked, naive := NewRecorder(), &naiveRecorder{inInit: true}
	script.play(chunked, chunked.BeginPackets, 0)
	script.play(naive, func() { naive.inInit = false }, 0)
	golden := &naiveRecorder{inInit: true}
	clean := make(recorderScript, len(script))
	for i, p := range script {
		clean[i] = p
		clean[i].drop = false
	}
	clean.play(golden, func() { golden.inInit = false }, 0xff)

	if !reflect.DeepEqual(chunked.Init, naive.init) {
		t.Fatalf("Init = %v, naive %v", chunked.Init, naive.init)
	}
	if len(chunked.Packets) != len(naive.packets) {
		t.Fatalf("%d packet records, naive %d", len(chunked.Packets), len(naive.packets))
	}
	for i, p := range chunked.Packets {
		w := naive.packets[i]
		if p.Dropped != w.Dropped || len(p.Obs) != len(w.Obs) {
			t.Fatalf("packet %d: dropped %v with %d observations, naive dropped %v with %d",
				i, p.Dropped, len(p.Obs), w.Dropped, len(w.Obs))
		}
		for j := range p.Obs {
			if p.Obs[j] != w.Obs[j] {
				t.Fatalf("packet %d observation %d = %v, naive %v", i, j, p.Obs[j], w.Obs[j])
			}
		}
		if cap(p.Obs) != len(p.Obs) {
			t.Fatalf("packet %d: Obs has cap %d beyond its length %d", i, cap(p.Obs), len(p.Obs))
		}
	}
	for _, c := range []struct {
		name      string
		got, want Report
	}{
		{"faulty", Compare(golden.recorder(), chunked), Compare(golden.recorder(), naive.recorder())},
		{"golden", Compare(chunked, golden.recorder()), Compare(naive.recorder(), golden.recorder())},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("Compare with the recorder as %s: %+v, naive %+v", c.name, c.got, c.want)
		}
	}
	if rep := Compare(golden.recorder(), chunked); rep.PacketsWith == 0 || rep.Dropped == 0 {
		t.Fatalf("the oracle compared no mismatches or no drops: %+v", rep)
	}

	// Mark every observation with its packet's index: a packet sharing
	// memory with another would then hold the other's mark.
	for i, p := range chunked.Packets {
		for j := range p.Obs {
			p.Obs[j].Value = uint64(i)
		}
	}
	for i, p := range chunked.Packets {
		for j := range p.Obs {
			if p.Obs[j].Value != uint64(i) {
				t.Fatalf("packet %d shares observation memory with packet %d", i, p.Obs[j].Value)
			}
		}
	}
}
