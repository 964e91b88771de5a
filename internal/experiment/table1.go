package experiment

import (
	"fmt"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
	"clumsy/internal/stats"
)

// Table1Row is the per-application summary of Table I.
type Table1Row struct {
	App              string
	InstrsM          float64 // instructions simulated, millions
	CacheAccessesM   float64 // L1D accesses, millions
	MissRate         float64 // L1D miss rate
	FallibilityC50   float64 // fallibility factor at Cr = 0.5
	FallibilityC50CI float64
	FallibilityC25   float64 // fallibility factor at Cr = 0.25
	FallibilityC25CI float64
}

// Table1 reproduces Table I: workload properties from the golden run and
// fallibility factors at Cr = 0.5 and 0.25 (no detection, faults in both
// planes, averaged over trials). Each application is one campaign cell:
// journaled for resume, deadline-guarded, and retried on host failures.
func Table1(o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	names := apps.Names()
	return grid(o, "table1", len(names), func(i int) any { return names[i] }, func(i int) (Table1Row, error) {
		row := Table1Row{App: names[i]}
		for _, cr := range []float64{0.5, 0.25} {
			var fall stats.Sample
			err := o.trials(clumsy.Config{
				App:        row.App,
				Packets:    o.Packets,
				CycleTime:  cr,
				FaultScale: o.FaultScale,
			}, func(res *clumsy.Result) {
				// The first trial at Cr = 0.5 gives the workload properties.
				if cr == 0.5 && fall.N() == 0 {
					row.InstrsM = float64(res.GoldenInstrs) / 1e6
					row.CacheAccessesM = float64(res.GoldenL1DStats.Accesses()) / 1e6
					row.MissRate = res.GoldenL1DStats.MissRate()
				}
				fall.Add(res.Fallibility())
			})
			if err != nil {
				return row, fmt.Errorf("table1 %s cr=%v: %w", row.App, cr, err)
			}
			if cr == 0.5 {
				row.FallibilityC50 = fall.Mean()
				row.FallibilityC50CI = fall.CI95()
			} else {
				row.FallibilityC25 = fall.Mean()
				row.FallibilityC25CI = fall.CI95()
			}
		}
		return row, nil
	})
}

// Table1Render formats the rows like the paper's Table I.
func Table1Render(rows []Table1Row, o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Table I: networking applications and their properties",
		Header: []string{"App", "Instr [M]", "Cache acc [M]", "Miss rate [%]",
			"Fallibility Cr=0.5", "Fallibility Cr=0.25"},
		Notes: []string{o.scaleNote(", no detection, faults in both planes")},
	}
	for _, r := range rows {
		t.AddRow(r.App,
			fmt.Sprintf("%.2f", r.InstrsM),
			fmt.Sprintf("%.2f", r.CacheAccessesM),
			fmt.Sprintf("%.1f", r.MissRate*100),
			fmt.Sprintf("%.3f±%.3f", r.FallibilityC50, r.FallibilityC50CI),
			fmt.Sprintf("%.3f±%.3f", r.FallibilityC25, r.FallibilityC25CI))
	}
	return t
}
