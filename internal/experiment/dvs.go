package experiment

import (
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
)

// The DVS comparison. The paper motivates clumsy operation against the
// conventional energy lever — dynamic voltage scaling — noting that
// "dynamically varying the clock frequency of the cache is easier to
// implement than varying the supply voltage" (Section 4). This extension
// quantifies the comparison: DVS slows the whole processor to save energy
// (delay up, energy down, no faults), while the clumsy cache speeds up the
// L1D at constant supply (delay down, cache energy down, fallibility up).

// DVSRow is one operating point of either approach.
type DVSRow struct {
	Approach    string  // "baseline", "dvs", "clumsy"
	Setting     string  // frequency ratio or Cr
	EnergyRel   float64 // energy relative to baseline
	DelayRel    float64 // per-packet delay relative to baseline
	Fallibility float64
	EDFRel      float64 // energy-delay^2-fallibility^2 relative to baseline
}

// dvsVoltage returns the supply ratio needed at core frequency ratio phi
// under a linear alpha-power approximation: v = vth' + (1 - vth')*phi with
// an effective threshold fraction of 0.4 — a standard first-order DVS
// model for the 0.18 um generation.
func dvsVoltage(phi float64) float64 {
	const vthFrac = 0.4
	return vthFrac + (1-vthFrac)*phi
}

// ExtDVS compares conventional whole-chip DVS against clumsy cache
// over-clocking (parity, two-strike) on one application.
func ExtDVS(app string, o Options) ([]DVSRow, error) {
	o = o.edfDefaults()

	// Baseline run: full frequency, no detection, negligible faults. Like
	// tuning's, it is its own journal cell and runs before the grid.
	var base [2]float64 // energy, delay
	if err := runCell(o, "dvs-"+app+"-baseline", 0, nil, &base, func() ([2]float64, error) {
		res, err := o.run(clumsy.Config{
			App: app, Packets: o.Packets, Seed: o.trialSeed(0), FaultScale: 1e-12,
		})
		if err != nil {
			return base, fmt.Errorf("ext-dvs baseline: %w", err)
		}
		return [2]float64{res.Energy.Total(), res.Delay}, nil
	}); err != nil {
		return nil, err
	}
	baseE, baseD := base[0], base[1]
	edf := func(e, d, f float64) float64 {
		return o.Exponents.EDF(e, d, f)
	}
	baseEDF := edf(baseE, baseD, 1)

	rows := []DVSRow{{
		Approach: "baseline", Setting: "f=1.0, Cr=1",
		EnergyRel: 1, DelayRel: 1, Fallibility: 1, EDFRel: 1,
	}}

	// DVS points: analytic scaling of the measured baseline. Energy per
	// operation scales with V^2; the operation count is unchanged, so the
	// relative energy is (V/V0)^2 and the relative delay 1/phi.
	for _, phi := range []float64{0.9, 0.8, 0.7, 0.6, 0.5} {
		v := dvsVoltage(phi) / dvsVoltage(1)
		eRel := v * v
		dRel := 1 / phi
		rows = append(rows, DVSRow{
			Approach:    "dvs",
			Setting:     fmt.Sprintf("f=%.1f", phi),
			EnergyRel:   eRel,
			DelayRel:    dRel,
			Fallibility: 1,
			EDFRel:      edf(eRel*baseE, dRel*baseD, 1) / baseEDF,
		})
	}

	// Clumsy points: measured simulation at the over-clocked settings,
	// journaled raw and normalised after the grid.
	crs := []float64{0.75, 0.5, 0.25}
	measured, err := grid(o, "dvs-"+app, len(crs), func(i int) any { return crs[i] }, func(i int) (DVSRow, error) {
		var eSum, dSum, fSum, edfSum float64
		err := o.trials(clumsy.Config{
			App: app, Packets: o.Packets,
			CycleTime: crs[i], Detection: cache.DetectionParity, Strikes: 2,
			FaultScale: o.FaultScale,
		}, func(res *clumsy.Result) {
			eSum += res.Energy.Total()
			dSum += res.Delay
			fSum += res.Fallibility()
			edfSum += res.EDF(o.Exponents)
		})
		if err != nil {
			return DVSRow{}, fmt.Errorf("ext-dvs clumsy cr=%v: %w", crs[i], err)
		}
		n := float64(o.Trials)
		return DVSRow{
			Approach:    "clumsy",
			Setting:     fmt.Sprintf("Cr=%g", crs[i]),
			EnergyRel:   eSum / n,
			DelayRel:    dSum / n,
			Fallibility: fSum / n,
			EDFRel:      edfSum / n,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range measured {
		r.EnergyRel /= baseE
		r.DelayRel /= baseD
		r.EDFRel /= baseEDF
		rows = append(rows, r)
	}
	return rows, nil
}

// ExtDVSRender formats the comparison.
func ExtDVSRender(app string, rows []DVSRow, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: conventional DVS vs clumsy over-clocking for %s", app),
		Header: []string{"Approach", "Setting", "Energy", "Delay", "Fallibility", "EDF^2"},
		Notes: []string{
			"DVS rows: analytic V-f scaling of the measured baseline (no faults, whole chip slows)",
			"clumsy rows: simulated, parity + two-strike, only the D-cache runs faster",
			o.scaleNote(""),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Approach, r.Setting,
			fmt.Sprintf("%.3f", r.EnergyRel),
			fmt.Sprintf("%.3f", r.DelayRel),
			fmt.Sprintf("%.4f", r.Fallibility),
			fmt.Sprintf("%.3f", r.EDFRel))
	}
	return t
}
