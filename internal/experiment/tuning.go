package experiment

import (
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
)

// Threshold tuning: Section 4 reports that "a detailed study reveals that
// setting X1 to 200% and X2 to 80% overall results in the best performance
// of the dynamic scheme". This experiment reruns that study: a grid over
// the decrease threshold X1 and the increase threshold X2, measuring the
// dynamic scheme's EDF (parity, two-strike) relative to the static
// full-frequency baseline.

// TuningCell is one (X1, X2) operating point.
type TuningCell struct {
	X1, X2      float64
	RelativeEDF float64
	Switches    float64 // mean frequency changes per run
}

// TuningX1 and TuningX2 are the swept threshold values (the paper's choice
// in the middle of each range).
var (
	TuningX1 = []float64{1.2, 2.0, 4.0}
	TuningX2 = []float64{0.5, 0.8, 0.95}
)

// ExtTuning sweeps the dynamic controller thresholds for one application.
func ExtTuning(app string, o Options) ([]TuningCell, error) {
	o = o.edfDefaults()

	// Baseline: static full frequency with parity (the scheme the dynamic
	// controller would idle at). The baseline is its own journal cell and
	// runs before the grid, so resumed campaigns recover or recompute the
	// identical divisor before any swept cell needs it.
	var baseline float64
	if err := runCell(o, "tuning-"+app+"-baseline", 0, nil, &baseline, func() (float64, error) {
		var sum float64
		err := o.trials(clumsy.Config{
			App: app, Packets: o.Packets,
			CycleTime: 1, Detection: cache.DetectionParity, Strikes: 2,
			FaultScale: o.FaultScale,
		}, func(res *clumsy.Result) { sum += res.EDF(o.Exponents) })
		if err != nil {
			return 0, fmt.Errorf("ext-tuning baseline: %w", err)
		}
		return sum / float64(o.Trials), nil
	}); err != nil {
		return nil, err
	}

	n2 := len(TuningX2)
	return grid(o, "tuning-"+app, len(TuningX1)*n2,
		func(i int) any { return [2]float64{TuningX1[i/n2], TuningX2[i%n2]} },
		func(i int) (TuningCell, error) {
			x1, x2 := TuningX1[i/n2], TuningX2[i%n2]
			var edfSum, swSum float64
			err := o.trials(clumsy.Config{
				App: app, Packets: o.Packets,
				Dynamic: true, X1: x1, X2: x2,
				Detection: cache.DetectionParity, Strikes: 2,
				FaultScale: o.FaultScale,
			}, func(res *clumsy.Result) {
				edfSum += res.EDF(o.Exponents)
				swSum += float64(res.Switches)
			})
			if err != nil {
				return TuningCell{}, fmt.Errorf("ext-tuning x1=%v x2=%v: %w", x1, x2, err)
			}
			return TuningCell{
				X1:          x1,
				X2:          x2,
				RelativeEDF: edfSum / float64(o.Trials) / baseline,
				Switches:    swSum / float64(o.Trials),
			}, nil
		})
}

// ExtTuningRender formats the threshold grid.
func ExtTuningRender(app string, cells []TuningCell, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: dynamic-controller threshold study for %s (relative EDF^2 vs static Cr=1 parity)", app),
		Header: []string{"X1 \\ X2"},
		Notes: []string{
			"Section 4: the paper's detailed study selected X1=200%, X2=80% (the centre cell)",
			o.scaleNote("; switches averaged per run in parentheses"),
		},
	}
	for _, x2 := range TuningX2 {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%%", x2*100))
	}
	for i, x1 := range TuningX1 {
		row := []string{fmt.Sprintf("%.0f%%", x1*100)}
		for j := range TuningX2 {
			c := cells[i*len(TuningX2)+j]
			row = append(row, fmt.Sprintf("%.3f (%.0f)", c.RelativeEDF, c.Switches))
		}
		t.AddRow(row...)
	}
	best := cells[0]
	for _, c := range cells[1:] {
		if c.RelativeEDF < best.RelativeEDF {
			best = c
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("best: X1=%.0f%%, X2=%.0f%% at %.3f",
		best.X1*100, best.X2*100, best.RelativeEDF))
	return t
}
