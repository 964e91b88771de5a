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
	o = o.edfDefaults()
	sizes := []int{1024, 4096, 16384}
	nc := len(CycleTimes)
	// Cells are journaled raw and normalised after the grid, as in EDFGrid.
	cells, err := grid(o, "geometry-"+app, len(sizes)*nc,
		func(i int) any { return [2]float64{float64(sizes[i/nc]), CycleTimes[i%nc]} },
		func(i int) (GeometryCell, error) {
			cell := GeometryCell{SizeBytes: sizes[i/nc], CycleTime: CycleTimes[i%nc]}
			var edfSum, missSum float64
			err := o.trials(clumsy.Config{
				App:        app,
				Packets:    o.Packets,
				CycleTime:  cell.CycleTime,
				Detection:  cache.DetectionParity,
				Strikes:    2,
				FaultScale: o.FaultScale,
				L1DSize:    cell.SizeBytes,
			}, func(res *clumsy.Result) {
				edfSum += res.EDF(o.Exponents)
				missSum += res.GoldenL1DStats.MissRate()
				cell.Fatal = cell.Fatal || res.Report.Fatal
			})
			if err != nil {
				return cell, fmt.Errorf("ext-geometry %s size=%d cr=%v: %w", app, cell.SizeBytes, cell.CycleTime, err)
			}
			cell.RelativeEDF = edfSum / float64(o.Trials) // normalised below
			cell.MissRate = missSum / float64(o.Trials)
			return cell, nil
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
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: L1 data cache geometry ablation for %s (parity, two-strike)", app),
		Header: []string{"L1D size", "miss rate"},
		Notes: []string{
			"each row is normalised to its own Cr=1 point: the cells read 'what over-clocking buys at this size'",
			o.scaleNote(""),
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
