package experiment

import (
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/stats"
)

// The reliability study goes beyond the paper's memoryless fault model: it
// sweeps the correlated fault regimes (burst droop episodes, permanent
// stuck-at cells) against the escalating recovery ladder (abort, drop,
// degrade) and reports how gracefully the processor's EDF^2 decays. The
// companion curve pre-disables growing fractions of the L1 data cache and
// measures throughput under the degrade policy — the "clumsy processor
// limping on a shrinking cache" picture.

// Regimes returns the fault regimes of the reliability sweep, paper first.
func Regimes() []clumsy.FaultRegime {
	return []clumsy.FaultRegime{clumsy.RegimePaper, clumsy.RegimeBurst, clumsy.RegimePermanent}
}

// Policies returns the recovery policies of the reliability sweep in
// escalation order.
func Policies() []clumsy.RecoveryPolicy {
	return []clumsy.RecoveryPolicy{clumsy.RecoverAbort, clumsy.RecoverDrop, clumsy.RecoverDegrade}
}

// ReliabilityCell is one cell of the regime x policy sweep for one
// application, averaged over trials.
type ReliabilityCell struct {
	App    string
	Regime string
	Policy string

	RelEDF float64 // EDF relative to the same run's golden baseline
	CI     float64 // 95% half-width of RelEDF across trials

	DropRate     float64 // mean dropped fraction of attempted packets
	DisabledFrac float64 // mean L1D capacity fraction dead at run end
	Escalations  float64 // mean ladder escalations (line disables + spatial back-offs)
	Fatal        bool    // any trial ended fatally
}

// reliabilityConfig is the common configuration of every sweep cell: the
// dynamic frequency scheme with two-strike parity recovery — the paper's
// overall winner — so the regimes and policies are compared at the
// operating point a deployed clumsy processor would use.
func reliabilityConfig(app string, o Options, regime clumsy.FaultRegime) clumsy.Config {
	return clumsy.Config{
		App:        app,
		Packets:    o.Packets,
		Dynamic:    true,
		Detection:  cache.DetectionParity,
		Strikes:    2,
		FaultScale: o.FaultScale,
		Regime:     regime,
	}
}

// Reliability sweeps fault regime x recovery policy over every application.
// Each cell is normalised to its own run's golden EDF (not to a shared
// baseline cell), so cells are independent and journal resume is
// order-free.
func Reliability(o Options) ([]ReliabilityCell, error) {
	o = o.edfDefaults()

	names := apps.Names()
	regimes := Regimes()
	policies := Policies()
	perApp := len(regimes) * len(policies)
	cells := make([]ReliabilityCell, len(names)*perApp)
	// One grid spans every app, so the cells of all apps share the
	// workers, but each app's cells journal under their own study name.
	err := parallelFor(o.ctx(), len(cells), func(idx int) error {
		app := names[idx/perApp]
		regime := regimes[(idx%perApp)/len(policies)]
		policy := policies[idx%len(policies)]
		// Options.run forces the campaign-wide policy onto every
		// configuration; this study sweeps the policy itself, so each cell
		// runs under a per-cell copy of the options.
		ropts := o
		ropts.Recovery = policy
		return runCell(o, "reliability-"+app, idx%perApp,
			[2]string{regime.String(), policy.String()}, &cells[idx], func() (ReliabilityCell, error) {
				cell := ReliabilityCell{App: app, Regime: regime.String(), Policy: policy.String()}
				var rel stats.Sample
				var drop, dfrac, esc float64
				err := ropts.trials(reliabilityConfig(app, o, regime), func(res *clumsy.Result) {
					rel.Add(res.EDF(o.Exponents) / res.GoldenEDF(o.Exponents))
					drop += res.Report.DropRate()
					dfrac += res.DisabledFrac
					esc += float64(res.Recovery.LineDisables) + float64(res.SpatialBackoffs)
					if res.Report.Fatal {
						cell.Fatal = true
					}
				})
				if err != nil {
					return cell, fmt.Errorf("reliability %s %s/%s: %w", app, regime, policy, err)
				}
				n := float64(o.Trials)
				cell.RelEDF = rel.Mean()
				cell.CI = rel.CI95()
				cell.DropRate = drop / n
				cell.DisabledFrac = dfrac / n
				cell.Escalations = esc / n
				return cell, nil
			})
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// reliabilityCell finds a cell in the sweep, or nil.
func reliabilityCell(cells []ReliabilityCell, app, regime, policy string) *ReliabilityCell {
	for i := range cells {
		c := &cells[i]
		if c.App == app && c.Regime == regime && c.Policy == policy {
			return c
		}
	}
	return nil
}

// ReliabilityRender formats the sweep as one table per fault regime:
// applications down, recovery policies across, relative EDF^2 in the
// cells (with drop rate where packets were lost).
func ReliabilityRender(cells []ReliabilityCell, o Options) []*Table {
	o = o.edfDefaults()
	var tables []*Table
	for _, regime := range Regimes() {
		t := &Table{
			Title: fmt.Sprintf("Reliability: relative energy-delay^%g-fallibility^%g under the %s fault regime (vs each run's golden baseline)",
				o.Exponents.M, o.Exponents.N, regime),
			Header: []string{"Application"},
			Notes: []string{
				o.scaleNote("; dynamic scheme, parity, two strikes"),
				"* marks configurations with fatal trials; drop/disabled columns shown when non-zero",
			},
		}
		for _, pol := range Policies() {
			t.Header = append(t.Header, pol.String())
		}
		var escalations float64
		for _, app := range apps.Names() {
			row := []string{app}
			for _, pol := range Policies() {
				c := reliabilityCell(cells, app, regime.String(), pol.String())
				cell := "-"
				if c != nil {
					cell = fmt.Sprintf("%.3f", c.RelEDF)
					if c.CI > 0 {
						cell += fmt.Sprintf("±%.3f", c.CI)
					}
					if c.DropRate > 0 {
						cell += fmt.Sprintf(" drop=%.3f", c.DropRate)
					}
					if c.DisabledFrac > 0 {
						cell += fmt.Sprintf(" dead=%.2f", c.DisabledFrac)
					}
					if c.Fatal {
						cell += "*"
					}
					escalations += c.Escalations
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		if escalations > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("mean ladder escalations across the regime: %.1f per run", escalations/float64(len(apps.Names())*len(Policies()))))
		}
		tables = append(tables, t)
	}
	return tables
}

// CurvePoint is one point of the graceful-degradation curve: the
// processor running with a fraction of its L1 data cache force-disabled.
type CurvePoint struct {
	Frac          float64 // requested pre-disabled capacity fraction
	DisabledFrac  float64 // realised fraction at run end (>= Frac: strikes add)
	DropRate      float64 // mean dropped fraction of attempted packets
	IPC           float64 // mean instructions per cycle of the faulty run
	RelEDF        float64 // EDF relative to the golden baseline
	LinesDisabled float64 // mean dead L1D frames at run end
	Fatal         bool
}

// CurveFracs are the swept pre-disabled capacity fractions.
var CurveFracs = []float64{0, 0.125, 0.25, 0.5, 0.75}

// ReliabilityCurve measures the graceful-degradation curve: drop rate and
// IPC as growing fractions of the L1 data cache are disabled, under the
// permanent fault regime with the full recovery ladder (degrade policy)
// at the static Cr = 0.5 operating point.
func ReliabilityCurve(app string, o Options) ([]CurvePoint, error) {
	o = o.edfDefaults()
	ropts := o
	ropts.Recovery = clumsy.RecoverDegrade

	return grid(o, "reliability-curve-"+app, len(CurveFracs),
		func(i int) any { return fmt.Sprintf("frac=%g", CurveFracs[i]) },
		func(i int) (CurvePoint, error) {
			pt := CurvePoint{Frac: CurveFracs[i]}
			var dfrac, drop, ipc, rel, lines float64
			err := ropts.trials(clumsy.Config{
				App:            app,
				Packets:        o.Packets,
				CycleTime:      0.5,
				Detection:      cache.DetectionParity,
				Strikes:        2,
				FaultScale:     o.FaultScale,
				Regime:         clumsy.RegimePermanent,
				PreDisableFrac: pt.Frac,
			}, func(res *clumsy.Result) {
				dfrac += res.DisabledFrac
				drop += res.Report.DropRate()
				if res.Cycles > 0 {
					ipc += float64(res.Instrs) / res.Cycles
				}
				rel += res.EDF(o.Exponents) / res.GoldenEDF(o.Exponents)
				lines += float64(res.LinesDisabled)
				if res.Report.Fatal {
					pt.Fatal = true
				}
			})
			if err != nil {
				return pt, fmt.Errorf("reliability-curve %s frac=%g: %w", app, pt.Frac, err)
			}
			n := float64(o.Trials)
			pt.DisabledFrac = dfrac / n
			pt.DropRate = drop / n
			pt.IPC = ipc / n
			pt.RelEDF = rel / n
			pt.LinesDisabled = lines / n
			return pt, nil
		})
}

// ReliabilityCurveRender formats the graceful-degradation curve.
func ReliabilityCurveRender(app string, points []CurvePoint, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Graceful degradation: %s with a shrinking L1 data cache (permanent regime, degrade policy, Cr=0.5)", app),
		Header: []string{"Pre-disabled", "Dead at end", "Drop rate", "IPC", "Relative EDF", "Dead frames"},
		Notes:  []string{o.scaleNote("; * marks fatal trials")},
	}
	for _, p := range points {
		relEDF := fmt.Sprintf("%.3f", p.RelEDF)
		if p.Fatal {
			relEDF += "*"
		}
		t.AddRow(
			fmt.Sprintf("%.1f%%", p.Frac*100),
			fmt.Sprintf("%.1f%%", p.DisabledFrac*100),
			fmt.Sprintf("%.4f", p.DropRate),
			fmt.Sprintf("%.3f", p.IPC),
			relEDF,
			fmt.Sprintf("%.1f", p.LinesDisabled),
		)
	}
	return t
}
