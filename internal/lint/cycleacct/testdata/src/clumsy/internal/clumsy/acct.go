// Fixture: cycle accounting inside the simulator core. Direct writes to the
// engine's counters, and to the Result fields a pass's totals fold into,
// are rejected unless the function is a designated accounting helper.
package clumsy

type engine struct {
	core   float64
	instrs uint64
	burned float64
	pc     int // not a counter field: writable anywhere
}

// charge is the designated accounting helper.
//
//lint:cycle-accounting
func (e *engine) charge(n int) {
	e.instrs += uint64(n)
	e.core += float64(n)
}

func step(e *engine) {
	e.pc++
	e.instrs++    // want `direct write to cycle/energy counter field instrs`
	e.core += 1.5 // want `direct write to cycle/energy counter field core`
	e.core = 0    // want `direct write to cycle/energy counter field core`
	e.burned += 8 // want `direct write to cycle/energy counter field burned`
	e.charge(1)   // routed through the helper: no diagnostic
}

func stepClosure(e *engine) {
	f := func() {
		e.core++ // want `direct write to cycle/energy counter field core`
	}
	f()
}

// Result mirrors the real fold-out struct: the engine folds a finished
// pass's totals straight into it, so its cost fields are written only by
// the accounting fold; its other fields stay writable anywhere.
type Result struct {
	Cycles float64
	Delay  float64
}

// fold is the designated accounting fold.
//
//lint:cycle-accounting
func fold(e *engine, r *Result) {
	r.Cycles = e.core
}

func patch(r *Result) {
	r.Delay = 1
	r.Cycles = 0 // want `direct write to cycle/energy counter field Cycles`
}
