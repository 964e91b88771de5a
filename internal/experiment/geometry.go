package experiment

import (
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
)

// Geometry ablation: the paper fixes the StrongARM 4 KB L1 data cache;
// this study asks how the clumsy trade-off moves with L1 capacity. A
// larger array filters more L2 stalls (delay gains shrink — there is less
// cache latency on the critical path to win back) but costs more energy
// per access; a smaller one amplifies both the over-clocking benefit and
// the recovery traffic.

// GeometryCell is one (size, Cr) point of the ablation.
type GeometryCell struct {
	SizeBytes   int
	CycleTime   float64
	MissRate    float64 // golden-run L1D miss rate
	RelativeEDF float64 // vs the same size at Cr = 1
	Fatal       bool
}

// ExtGeometry sweeps the L1D capacity across the operating points under
// parity with two-strike recovery. Each size is normalised to its own
// Cr = 1 run, so the column reads "what over-clocking buys at this size".
func ExtGeometry(app string, o Options) ([]GeometryCell, error) {
	if o.FaultScale == 0 {
		o.FaultScale = EDFFaultScale
	}
	o = o.withDefaults()
	sizes := []int{1024, 4096, 16384}
	// Cells are journaled raw and normalised after the grid, as in EDFGrid.
	cells := make([]GeometryCell, len(sizes)*len(CycleTimes))
	err := parallelFor(o.ctx(), len(cells), func(idx int) error {
		size := sizes[idx/len(CycleTimes)]
		cr := CycleTimes[idx%len(CycleTimes)]
		return runCell(o, "geometry-"+app, idx, [2]float64{float64(size), cr}, &cells[idx], func() (GeometryCell, error) {
			cell := GeometryCell{SizeBytes: size, CycleTime: cr}
			var edfSum, missSum float64
			for trial := 0; trial < o.Trials; trial++ {
				res, err := o.run(clumsy.Config{
					App:        app,
					Packets:    o.Packets,
					Seed:       o.trialSeed(trial),
					CycleTime:  cr,
					Detection:  cache.DetectionParity,
					Strikes:    2,
					FaultScale: o.FaultScale,
					L1DSize:    size,
				})
				if err != nil {
					return cell, fmt.Errorf("ext-geometry %s size=%d cr=%v: %w", app, size, cr, err)
				}
				edfSum += res.EDF(o.Exponents)
				missSum += res.GoldenL1DStats.MissRate()
				cell.Fatal = cell.Fatal || res.Report.Fatal
			}
			cell.RelativeEDF = edfSum / float64(o.Trials) // normalised below
			cell.MissRate = missSum / float64(o.Trials)
			return cell, nil
		})
	})
	if err != nil {
		return nil, err
	}
	// Normalise each size's row against its own full-speed point.
	for row := 0; row < len(cells); row += len(CycleTimes) {
		baseline := cells[row].RelativeEDF
		for i := row; i < row+len(CycleTimes); i++ {
			cells[i].RelativeEDF /= baseline
		}
	}
	return cells, nil
}

// ExtGeometryRender formats the ablation.
func ExtGeometryRender(app string, cells []GeometryCell, o Options) *Table {
	if o.FaultScale == 0 {
		o.FaultScale = EDFFaultScale
	}
	o = o.withDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: L1 data cache geometry ablation for %s (parity, two-strike)", app),
		Header: []string{"L1D size", "miss rate"},
		Notes: []string{
			"each row is normalised to its own Cr=1 point: the cells read 'what over-clocking buys at this size'",
			fmt.Sprintf("%d packets/run, %d trials, fault scale %g", o.Packets, o.Trials, o.FaultScale),
		},
	}
	for _, cr := range CycleTimes {
		t.Header = append(t.Header, "Cr="+cycleTimeLabel(cr))
	}
	bySize := map[int][]GeometryCell{}
	order := []int{}
	for _, c := range cells {
		if _, seen := bySize[c.SizeBytes]; !seen {
			order = append(order, c.SizeBytes)
		}
		bySize[c.SizeBytes] = append(bySize[c.SizeBytes], c)
	}
	for _, size := range order {
		row := []string{fmt.Sprintf("%d KB", size/1024),
			fmt.Sprintf("%.1f%%", bySize[size][0].MissRate*100)}
		for _, c := range bySize[size] {
			cell := fmt.Sprintf("%.3f", c.RelativeEDF)
			if c.Fatal {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}
