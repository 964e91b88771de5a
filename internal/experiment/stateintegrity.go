package experiment

import (
	"errors"
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/workload"
)

// The state-integrity study measures what the paper's fault-containment
// story cannot see: corruption of *cross-packet* state. The stateful
// applications (the firewall's connection table, the flow tracker's
// per-flow records) carry state a packet-boundary rollback cannot restore;
// this grid sweeps fault regime x scrub interval x workload shape and
// reports how much flow state silently diverged from the golden shadow,
// how much the checksum machinery caught, and what the recovery ladder did
// about it. The acceptance bar is the undetected-divergence column: at the
// default scrub interval it must be zero (the only escape channel is a
// 32-bit checksum collision).

// StateApps returns the stateful applications of the study.
func StateApps() []string { return []string{"fw", "flowtrack"} }

// stateScrubs are the swept scrub settings: the default interval and
// scrubbing disabled (verified reads on the access path remain the only
// detector).
var stateScrubs = []int{clumsy.DefaultScrubInterval, -1}

// stateShapes are the swept workload shapes: the canonical steady trace
// and an adversarial flash-crowd mix (malformed wire images + flow-churn
// flood) from the workload-v2 substrate.
var stateShapes = []stateShape{
	{"steady", nil},
	{"adversarial", &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.15, Churn: 0.25}},
}

// stateShape is a named workload shape; a nil spec is the canonical trace.
type stateShape struct {
	name string
	spec *workload.Spec
}

// StateCell is one cell of the regime x scrub x shape sweep for one
// stateful application, averaged over trials.
type StateCell struct {
	Regime string
	Scrub  int // scrub interval in packets (<= 0: disabled)
	Shape  string

	Detected  float64 // mean checksum mismatches detected per run
	Evictions float64 // mean ladder evictions per run
	Rebuilds  float64 // mean shadow rebuilds per run

	DivergedRate   float64 // mean end-of-run diverged fraction of flow records
	UndetectedRate float64 // mean diverged-yet-checksum-consistent fraction
	DropRate       float64 // mean dropped fraction of attempted packets

	CorruptFatal int // trials ended by unrecoverable state corruption
}

// stateConfig is the common configuration of every cell: static Cr = 0.5
// (deep in the clumsy region, so faults actually land), parity with
// two-strike recovery, and drop-and-continue containment — the deployment
// posture a stateful clumsy processor would run under.
func stateConfig(app string, o Options, regime clumsy.FaultRegime, scrub int, spec *workload.Spec) clumsy.Config {
	return clumsy.Config{
		App:           app,
		Packets:       o.Packets,
		CycleTime:     0.5,
		Detection:     cache.DetectionParity,
		Strikes:       2,
		FaultScale:    o.FaultScale,
		Regime:        regime,
		ScrubInterval: scrub,
		Workload:      spec,
	}
}

// StateIntegrity sweeps fault regime x scrub interval x workload shape for
// one stateful application. Cells are journaled under "state-<app>" and
// independent, so campaign resume is order-free.
func StateIntegrity(app string, o Options) ([]StateCell, error) {
	o = o.edfDefaults()
	// The study owns its containment policy; a campaign-wide -recovery
	// switch must not turn the drop-rate measurement into abort runs.
	ropts := o
	ropts.Recovery = clumsy.RecoverDrop

	regimes := Regimes()
	perRegime := len(stateScrubs) * len(stateShapes)
	at := func(i int) (clumsy.FaultRegime, int, stateShape) {
		return regimes[i/perRegime], stateScrubs[(i%perRegime)/len(stateShapes)], stateShapes[i%len(stateShapes)]
	}
	return grid(o, "state-"+app, len(regimes)*perRegime, func(i int) any {
		// The cell's fingerprint carries the study-specific knobs that the
		// Config annotations defer here: regime, scrub interval, and the
		// workload spec (Config.ScrubInterval / StateStrikes / Workload).
		regime, scrub, shape := at(i)
		extra := [3]string{regime.String(), fmt.Sprintf("scrub=%d", scrub), shape.name}
		if shape.spec != nil {
			extra[2] = shape.spec.String()
		}
		return extra
	}, func(i int) (StateCell, error) {
		regime, scrub, shape := at(i)
		cell := StateCell{Regime: regime.String(), Scrub: scrub, Shape: shape.name}
		err := ropts.trials(stateConfig(app, o, regime, scrub, shape.spec), func(res *clumsy.Result) {
			cell.Detected += float64(res.StateDetected)
			cell.Evictions += float64(res.StateEvictions)
			cell.Rebuilds += float64(res.StateRebuilds)
			if res.StateRecords > 0 {
				cell.DivergedRate += float64(res.StateDiverged) / float64(res.StateRecords)
				cell.UndetectedRate += float64(res.StateUndetected) / float64(res.StateRecords)
			}
			cell.DropRate += res.Report.DropRate()
			if errors.Is(res.FatalErr, clumsy.ErrStateCorrupt) {
				cell.CorruptFatal++
			}
		})
		if err != nil {
			return cell, fmt.Errorf("state %s %s/%s/scrub=%d: %w", app, regime, shape.name, scrub, err)
		}
		n := float64(o.Trials)
		cell.Detected /= n
		cell.Evictions /= n
		cell.Rebuilds /= n
		cell.DivergedRate /= n
		cell.UndetectedRate /= n
		cell.DropRate /= n
		return cell, nil
	})
}

// stateCell finds a cell in the sweep, or nil.
func stateCell(cells []StateCell, regime string, scrub int, shape string) *StateCell {
	for i := range cells {
		c := &cells[i]
		if c.Regime == regime && c.Scrub == scrub && c.Shape == shape {
			return c
		}
	}
	return nil
}

// StateIntegrityRender formats one application's sweep as a table:
// regime x shape down, scrub settings across, with the detection and
// divergence evidence in each cell.
func StateIntegrityRender(app string, cells []StateCell, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("State integrity: %s flow-table corruption under fault regime x scrub x workload shape", app),
		Header: []string{"Regime", "Shape"},
		Notes: []string{
			o.scaleNote("; Cr=0.5, parity x2, drop containment"),
			"det = checksum mismatches caught, ev/rb = ladder evictions/rebuilds, div = end-of-run diverged record fraction",
			"undet = diverged yet checksum-consistent fraction (silent corruption; must be 0), + marks unrecoverable-state trials",
		},
	}
	for _, scrub := range stateScrubs {
		label := fmt.Sprintf("scrub every %d", scrub)
		if scrub <= 0 {
			label = "scrub off"
		}
		t.Header = append(t.Header, label)
	}
	for _, regime := range Regimes() {
		for _, shape := range stateShapes {
			row := []string{regime.String(), shape.name}
			for _, scrub := range stateScrubs {
				c := stateCell(cells, regime.String(), scrub, shape.name)
				cell := "-"
				if c != nil {
					cell = fmt.Sprintf("det=%.1f ev=%.1f rb=%.1f div=%.4f undet=%.4f",
						c.Detected, c.Evictions, c.Rebuilds, c.DivergedRate, c.UndetectedRate)
					if c.DropRate > 0 {
						cell += fmt.Sprintf(" drop=%.3f", c.DropRate)
					}
					if c.CorruptFatal > 0 {
						cell += fmt.Sprintf(" +%d", c.CorruptFatal)
					}
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return t
}
