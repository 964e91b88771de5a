package experiment

import (
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/stats"
)

// Scheme is one detection/recovery configuration of Figures 9–12.
type Scheme struct {
	Name      string
	Detection cache.Detection
	Strikes   int
}

// Schemes returns the paper's four recovery schemes in figure order.
func Schemes() []Scheme {
	return []Scheme{
		{Name: "no detection", Detection: cache.DetectionNone, Strikes: 1},
		{Name: "one-strike", Detection: cache.DetectionParity, Strikes: 1},
		{Name: "two strikes", Detection: cache.DetectionParity, Strikes: 2},
		{Name: "three strikes", Detection: cache.DetectionParity, Strikes: 3},
	}
}

// Setting is one operating point of the EDF bars: a static cycle time or
// the dynamic scheme.
type Setting struct {
	Name      string
	CycleTime float64
	Dynamic   bool
}

// Settings returns the five bars per scheme: static Cr = 1, 0.75, 0.5,
// 0.25, and the dynamic frequency-adaptation scheme.
func Settings() []Setting {
	s := make([]Setting, 0, 5)
	for _, cr := range CycleTimes {
		s = append(s, Setting{Name: fmt.Sprintf("%g", cr), CycleTime: cr})
	}
	return append(s, Setting{Name: "dynamic", Dynamic: true})
}

// EDFCell is one bar of Figures 9–12: the energy-delay^m-fallibility^n
// product of a configuration relative to Cr = 1 with no detection.
type EDFCell struct {
	Scheme   string
	Setting  string
	Relative float64 // EDF relative to the baseline
	CI       float64 // 95% half-width of Relative across trials
	Energy   float64 // joules (absolute, informational)
	Delay    float64 // cycles per packet
	Fall     float64 // fallibility factor
	Fatal    bool    // any trial ended fatally
}

// EDFResult is the full grid for one application.
type EDFResult struct {
	App      string
	Cells    []EDFCell
	Baseline float64 // absolute EDF of the Cr=1 / no-detection reference
}

// EDFFaultScale is the default fault-rate multiplier of the EDF
// experiments. The paper's runs execute 7M-497M instructions per
// application, this harness's default traces 0.3M-19M; the multiplier
// equalises the fault exposure per run so the recovery schemes separate as
// they do in Figures 9-12. Passing an explicit Options.FaultScale (e.g. 1
// for the raw physical rate) overrides it.
const EDFFaultScale = 25

// EDFGrid measures the energy-delay^2-fallibility^2 product of every
// scheme × setting combination for one application, averaged over trials
// and normalised to the paper's reference configuration.
func EDFGrid(app string, o Options) (*EDFResult, error) {
	o = o.edfDefaults()
	out := &EDFResult{App: app}

	schemes := Schemes()
	settings := Settings()
	ns := len(settings)
	// Cells are journaled raw (pre-normalisation): the baseline division
	// below depends on cell 0, which on a resumed campaign may itself come
	// from the journal. Normalising after the grid completes keeps journal
	// entries independent of completion order.
	cells, err := grid(o, "edf-"+app, len(schemes)*ns,
		func(i int) any { return [2]string{schemes[i/ns].Name, settings[i%ns].Name} },
		func(i int) (EDFCell, error) {
			sch, set := schemes[i/ns], settings[i%ns]
			cell := EDFCell{Scheme: sch.Name, Setting: set.Name}
			var edf stats.Sample
			var eSum, dSum, fSum float64
			err := o.trials(clumsy.Config{
				App:        app,
				Packets:    o.Packets,
				CycleTime:  set.CycleTime,
				Dynamic:    set.Dynamic,
				Detection:  sch.Detection,
				Strikes:    sch.Strikes,
				FaultScale: o.FaultScale,
			}, func(res *clumsy.Result) {
				edf.Add(res.EDF(o.Exponents))
				eSum += res.Energy.Total()
				dSum += res.Delay
				fSum += res.Fallibility()
				if res.Report.Fatal {
					cell.Fatal = true
				}
			})
			if err != nil {
				return cell, fmt.Errorf("edf %s %s/%s: %w", app, sch.Name, set.Name, err)
			}
			n := float64(o.Trials)
			cell.Relative = edf.Mean() // normalised below
			cell.CI = edf.CI95()
			cell.Energy = eSum / n
			cell.Delay = dSum / n
			cell.Fall = fSum / n
			return cell, nil
		})
	if err != nil {
		return nil, err
	}

	out.Baseline = cells[0].Relative // no detection, Cr = 1
	for _, c := range cells {
		c.Relative /= out.Baseline
		c.CI /= out.Baseline
		out.Cells = append(out.Cells, c)
	}
	return out, nil
}

// EDFAverage combines per-application grids into the all-application
// average panel of Figure 12(b) by averaging the relative products.
func EDFAverage(results []*EDFResult) *EDFResult {
	if len(results) == 0 {
		return &EDFResult{App: "average"}
	}
	out := &EDFResult{App: "average"}
	n := len(results[0].Cells)
	for i := 0; i < n; i++ {
		cell := results[0].Cells[i]
		sumRel, sumCI, sumE, sumD, sumF := 0.0, 0.0, 0.0, 0.0, 0.0
		fatal := false
		for _, r := range results {
			sumRel += r.Cells[i].Relative
			sumCI += r.Cells[i].CI
			sumE += r.Cells[i].Energy
			sumD += r.Cells[i].Delay
			sumF += r.Cells[i].Fall
			fatal = fatal || r.Cells[i].Fatal
		}
		m := float64(len(results))
		cell.Relative = sumRel / m
		cell.CI = sumCI / m // conservative: averaged half-widths
		cell.Energy = sumE / m
		cell.Delay = sumD / m
		cell.Fall = sumF / m
		cell.Fatal = fatal
		out.Cells = append(out.Cells, cell)
	}
	return out
}

// Best returns the scheme/setting with the lowest relative EDF.
func (r *EDFResult) Best() EDFCell {
	best := r.Cells[0]
	for _, c := range r.Cells[1:] {
		if c.Relative < best.Relative {
			best = c
		}
	}
	return best
}

// Cell returns the grid cell for a scheme/setting pair, or nil.
func (r *EDFResult) Cell(scheme, setting string) *EDFCell {
	for i := range r.Cells {
		if r.Cells[i].Scheme == scheme && r.Cells[i].Setting == setting {
			return &r.Cells[i]
		}
	}
	return nil
}

// EDFRender formats one application's grid as a Figure 9–12 panel.
func EDFRender(r *EDFResult, figure string, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title: fmt.Sprintf("%s: relative energy-delay^%g-fallibility^%g of %s (baseline: Cr=1, no detection)",
			figure, o.Exponents.M, o.Exponents.N, r.App),
		Header: []string{"Recovery scheme"},
		Notes:  []string{o.scaleNote("")},
	}
	settings := Settings()
	for _, s := range settings {
		t.Header = append(t.Header, s.Name)
	}
	for _, sch := range Schemes() {
		row := []string{sch.Name}
		for _, set := range settings {
			c := r.Cell(sch.Name, set.Name)
			cell := "-"
			if c != nil {
				cell = fmt.Sprintf("%.3f", c.Relative)
				if c.CI > 0 {
					cell += fmt.Sprintf("±%.3f", c.CI)
				}
				if c.Fatal {
					cell += "*"
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	best := r.Best()
	t.Notes = append(t.Notes,
		fmt.Sprintf("best: %s at %s (%.3f, a %.0f%% reduction); * marks configurations with fatal trials",
			best.Scheme, best.Setting, best.Relative, (1-best.Relative)*100))
	return t
}

// AllEDF runs the grid for every application and returns the per-app
// results followed by the average (the full Figures 9–12 set).
func AllEDF(o Options) ([]*EDFResult, error) {
	var results []*EDFResult
	for _, name := range apps.Names() {
		r, err := EDFGrid(name, o)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	results = append(results, EDFAverage(results))
	return results, nil
}
