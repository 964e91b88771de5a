package experiment

import (
	"fmt"
	"sort"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
)

// ErrorSweep holds per-structure error probabilities across operating
// points for one application under one injection plane, the data behind
// Figures 6 and 7.
type ErrorSweep struct {
	App    string
	Plane  clumsy.Planes
	Struct []string             // structure names, sorted
	Prob   map[string][]float64 // structure -> probability per CycleTimes entry
	Fatal  []float64            // fatal probability per CycleTimes entry
}

// ErrorBehaviour runs the Section 5.2 experiment for one application: for
// each injection plane (control, data, both) and each operating point it
// measures the error probability of every observed data structure and the
// fatal-error probability, averaged over trials. No detection scheme is
// used, as in the paper.
func ErrorBehaviour(app string, o Options) ([]ErrorSweep, error) {
	o = o.withDefaults()
	planes := []clumsy.Planes{clumsy.PlaneControl, clumsy.PlaneData, clumsy.PlaneBoth}
	return grid(o, "error-"+app, len(planes), func(i int) any { return int(planes[i]) }, func(i int) (ErrorSweep, error) {
		sweep := ErrorSweep{App: app, Plane: planes[i], Prob: map[string][]float64{}}
		for ci, cr := range CycleTimes {
			probSum := map[string]float64{}
			fatalSum := 0.0
			err := o.trials(clumsy.Config{
				App:        app,
				Packets:    o.Packets,
				CycleTime:  cr,
				FaultScale: o.FaultScale,
				Planes:     sweep.Plane,
			}, func(res *clumsy.Result) {
				for _, name := range res.Report.StructureNames() {
					probSum[name] += res.Report.ErrorProbability(name)
				}
				fatalSum += res.FatalProbability()
			})
			if err != nil {
				return sweep, fmt.Errorf("error sweep %s %v cr=%v: %w", app, sweep.Plane, cr, err)
			}
			for name, sum := range probSum {
				if _, ok := sweep.Prob[name]; !ok {
					sweep.Prob[name] = make([]float64, len(CycleTimes))
				}
				sweep.Prob[name][ci] = sum / float64(o.Trials)
			}
			sweep.Fatal = append(sweep.Fatal, fatalSum/float64(o.Trials))
		}
		for name := range sweep.Prob {
			sweep.Struct = append(sweep.Struct, name)
		}
		sort.Strings(sweep.Struct)
		return sweep, nil
	})
}

// ErrorBehaviourRender formats one application's sweep as the three panels
// of Figure 6/7.
func ErrorBehaviourRender(sweeps []ErrorSweep, figure string, o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, s := range sweeps {
		t := &Table{
			Title:  fmt.Sprintf("%s: error probability of %s — faults in %s", figure, s.App, s.Plane),
			Header: []string{"Structure"},
			Notes:  []string{o.scaleNote(", no detection")},
		}
		for _, cr := range CycleTimes {
			t.Header = append(t.Header, "Cr="+cycleTimeLabel(cr))
		}
		for _, name := range s.Struct {
			row := []string{name}
			for ci := range CycleTimes {
				row = append(row, fmt.Sprintf("%.5f", s.Prob[name][ci]))
			}
			t.AddRow(row...)
		}
		row := []string{metricFatal}
		for ci := range CycleTimes {
			row = append(row, fmt.Sprintf("%.5f", s.Fatal[ci]))
		}
		t.AddRow(row...)
		tables = append(tables, t)
	}
	return tables
}

const metricFatal = "fatal error"

// FatalRow is one application's fatal-error probabilities (Figure 8).
type FatalRow struct {
	App   string
	Fatal []float64 // per CycleTimes entry
}

// Fig8 measures the fatal-error probability of every application across
// operating points with no detection scheme, faults in both planes.
func Fig8(o Options) ([]FatalRow, error) {
	o = o.withDefaults()
	names := apps.Names()
	return grid(o, "fig8", len(names), func(i int) any { return names[i] }, func(i int) (FatalRow, error) {
		row := FatalRow{App: names[i]}
		for _, cr := range CycleTimes {
			sum := 0.0
			err := o.trials(clumsy.Config{
				App:        row.App,
				Packets:    o.Packets,
				CycleTime:  cr,
				FaultScale: o.FaultScale,
			}, func(res *clumsy.Result) { sum += res.FatalProbability() })
			if err != nil {
				return row, fmt.Errorf("fig8 %s cr=%v: %w", row.App, cr, err)
			}
			row.Fatal = append(row.Fatal, sum/float64(o.Trials))
		}
		return row, nil
	})
}

// Fig8Render formats the fatal-error matrix like Figure 8, including the
// across-application average.
func Fig8Render(rows []FatalRow, o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:  "Figure 8: fatal error probabilities for different clock rates (no detection)",
		Header: []string{"App"},
		Notes: []string{
			o.scaleNote(""),
			"with parity detection enabled the reproduction, like the paper, observes no fatal errors",
		},
	}
	for _, cr := range CycleTimes {
		t.Header = append(t.Header, "Cr="+cycleTimeLabel(cr))
	}
	avg := make([]float64, len(CycleTimes))
	for _, r := range rows {
		row := []string{r.App}
		for ci := range CycleTimes {
			row = append(row, fmt.Sprintf("%.5f", r.Fatal[ci]))
			avg[ci] += r.Fatal[ci]
		}
		t.AddRow(row...)
	}
	row := []string{"avrg"}
	for ci := range CycleTimes {
		row = append(row, fmt.Sprintf("%.5f", avg[ci]/float64(len(rows))))
	}
	t.AddRow(row...)
	return t
}
