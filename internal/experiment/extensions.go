package experiment

import (
	"fmt"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/metrics"
)

// Extensions: experiments beyond the paper's evaluation, covering the
// alternatives the paper mentions but sets aside — SEC-DED error
// correction (Section 4: "error correction techniques would incur
// unnecessary complication and energy"), sub-block invalidation
// (footnote 2), and the weighted energy^k-delay^m-fallibility^n metric
// family (Section 4.1).

// DetectionCell summarises one detection scheme at one operating point.
type DetectionCell struct {
	Detection   cache.Detection
	CycleTime   float64
	RelativeEDF float64
	Corrected   uint64 // ECC in-place corrections
	Recoveries  uint64
	Fatal       bool
}

// ExtDetection compares no detection, parity, and SEC-DED ECC (all with
// two-strike recovery for the detected-uncorrectable path) across the
// operating points, answering the question the paper raised and skipped:
// is the energy cost of correction ever worth it?
func ExtDetection(app string, o Options) ([]DetectionCell, error) {
	o = o.edfDefaults()
	detections := []cache.Detection{cache.DetectionNone, cache.DetectionParity, cache.DetectionECC}
	nc := len(CycleTimes)
	// Cells are journaled raw and normalised after the grid, as in EDFGrid.
	cells, err := grid(o, "detection-"+app, len(detections)*nc,
		func(i int) any { return [2]string{detections[i/nc].String(), cycleTimeLabel(CycleTimes[i%nc])} },
		func(i int) (DetectionCell, error) {
			cell := DetectionCell{Detection: detections[i/nc], CycleTime: CycleTimes[i%nc]}
			var edfSum float64
			err := o.trials(clumsy.Config{
				App:        app,
				Packets:    o.Packets,
				CycleTime:  cell.CycleTime,
				Detection:  cell.Detection,
				Strikes:    2,
				FaultScale: o.FaultScale,
			}, func(res *clumsy.Result) {
				edfSum += res.EDF(o.Exponents)
				cell.Corrected += res.Recovery.Corrected
				cell.Recoveries += res.Recovery.Recoveries
				cell.Fatal = cell.Fatal || res.Report.Fatal
			})
			if err != nil {
				return cell, fmt.Errorf("ext-detection %s %v cr=%v: %w", app, cell.Detection, cell.CycleTime, err)
			}
			cell.RelativeEDF = edfSum / float64(o.Trials) // normalised below
			return cell, nil
		})
	if err != nil {
		return nil, err
	}
	baseline := cells[0].RelativeEDF // no detection, Cr = 1
	for i := range cells {
		cells[i].RelativeEDF /= baseline
	}
	return cells, nil
}

// ExtDetectionRender formats the detection comparison.
func ExtDetectionRender(app string, cells []DetectionCell, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: detection schemes for %s — relative EDF^2 (two-strike recovery)", app),
		Header: []string{"Detection"},
		Notes:  []string{o.scaleNote("; ECC corrects single-bit faults in place at +60%/+80% read/write energy")},
	}
	for _, cr := range CycleTimes {
		t.Header = append(t.Header, "Cr="+cycleTimeLabel(cr))
	}
	t.Header = append(t.Header, "corrected", "recoveries")
	byDet := map[cache.Detection][]DetectionCell{}
	for _, c := range cells {
		byDet[c.Detection] = append(byDet[c.Detection], c)
	}
	for _, det := range []cache.Detection{cache.DetectionNone, cache.DetectionParity, cache.DetectionECC} {
		row := []string{det.String()}
		var corrected, recoveries uint64
		for _, c := range byDet[det] {
			cell := fmt.Sprintf("%.3f", c.RelativeEDF)
			if c.Fatal {
				cell += "*"
			}
			row = append(row, cell)
			corrected += c.Corrected
			recoveries += c.Recoveries
		}
		row = append(row, fmt.Sprintf("%d", corrected), fmt.Sprintf("%d", recoveries))
		t.AddRow(row...)
	}
	return t
}

// SubBlockCell compares full-line and sub-block recovery at one point.
type SubBlockCell struct {
	CycleTime    float64
	FullEDF      float64 // relative EDF, full-line invalidation
	SubEDF       float64 // relative EDF, sub-block recovery
	FullL2       uint64  // L2 accesses under full-line recovery
	SubL2        uint64  // L2 accesses under sub-block recovery
	FullRecovers uint64
	SubRecovers  uint64
}

// ExtSubBlock measures the footnote-2 extension: recovering single words
// from the L2 instead of invalidating whole lines, under parity with
// two-strike recovery.
func ExtSubBlock(app string, o Options) ([]SubBlockCell, error) {
	o = o.edfDefaults()
	// Cells are journaled raw and normalised after the grid, as in EDFGrid.
	cells, err := grid(o, "subblock-"+app, len(CycleTimes),
		func(i int) any { return cycleTimeLabel(CycleTimes[i]) },
		func(i int) (SubBlockCell, error) {
			cell := SubBlockCell{CycleTime: CycleTimes[i]}
			for _, sub := range []bool{false, true} {
				var edfSum float64
				var l2, rec uint64
				err := o.trials(clumsy.Config{
					App:        app,
					Packets:    o.Packets,
					CycleTime:  cell.CycleTime,
					Detection:  cache.DetectionParity,
					Strikes:    2,
					SubBlock:   sub,
					FaultScale: o.FaultScale,
				}, func(res *clumsy.Result) {
					edfSum += res.EDF(o.Exponents)
					rec += res.Recovery.Recoveries
					l2 += res.L1DStats.ReadMisses + res.L1DStats.WriteMisses + res.L1DStats.Writebacks + res.Recovery.Recoveries
				})
				if err != nil {
					return cell, fmt.Errorf("ext-subblock %s cr=%v: %w", app, cell.CycleTime, err)
				}
				if sub {
					cell.SubEDF = edfSum / float64(o.Trials)
					cell.SubL2 = l2
					cell.SubRecovers = rec
				} else {
					cell.FullEDF = edfSum / float64(o.Trials)
					cell.FullL2 = l2
					cell.FullRecovers = rec
				}
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}
	baseline := cells[0].FullEDF // full-line recovery, Cr = 1
	for i := range cells {
		cells[i].FullEDF /= baseline
		cells[i].SubEDF /= baseline
	}
	return cells, nil
}

// ExtSubBlockRender formats the sub-block comparison.
func ExtSubBlockRender(app string, cells []SubBlockCell, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title: fmt.Sprintf("Extension: sub-block recovery for %s (parity, two-strike)", app),
		Header: []string{"Cr", "EDF full-line", "EDF sub-block",
			"L2 traffic full", "L2 traffic sub", "recoveries full", "recoveries sub"},
		Notes: []string{
			"footnote 2 of the paper: invalidating only the affected word keeps dirty neighbours and avoids write-backs",
			o.scaleNote(""),
		},
	}
	for _, c := range cells {
		t.AddRow(cycleTimeLabel(c.CycleTime),
			fmt.Sprintf("%.3f", c.FullEDF),
			fmt.Sprintf("%.3f", c.SubEDF),
			fmt.Sprintf("%d", c.FullL2),
			fmt.Sprintf("%d", c.SubL2),
			fmt.Sprintf("%d", c.FullRecovers),
			fmt.Sprintf("%d", c.SubRecovers))
	}
	return t
}

// ExponentRow records the winning configuration under one EDF weighting.
type ExponentRow struct {
	Exponents metrics.EDFExponents
	Best      EDFCell
}

// ExtExponents explores the energy^k-delay^m-fallibility^n family of
// Section 4.1: different architectures weight the three axes differently,
// and the winning configuration moves with the weights.
func ExtExponents(app string, o Options) ([]ExponentRow, error) {
	// Resolved once, so the five grids share one golden cache: the
	// weights never change a golden pass.
	o = o.edfDefaults()
	weightings := []metrics.EDFExponents{
		{K: 1, M: 1, N: 1}, // classic EDP with errors
		{K: 1, M: 2, N: 2}, // the paper's choice
		{K: 1, M: 2, N: 0}, // ignore errors entirely (pure energy-delay^2)
		{K: 2, M: 1, N: 2}, // battery-bound wireless node
		{K: 1, M: 1, N: 4}, // error-critical deployment
	}
	var rows []ExponentRow
	for _, e := range weightings {
		opts := o
		opts.Exponents = e
		grid, err := EDFGrid(app, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExponentRow{Exponents: e, Best: grid.Best()})
	}
	return rows, nil
}

// ExtExponentsRender formats the weighting sensitivity study.
func ExtExponentsRender(app string, rows []ExponentRow, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Extension: metric-weighting sensitivity for %s", app),
		Header: []string{"k (energy)", "m (delay)", "n (fallibility)", "best scheme", "best setting", "relative EDF"},
		Notes: []string{
			"Section 4.1: the product can be weighted energy^k-delay^m-fallibility^n to the architecture's needs",
			o.scaleNote(""),
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%g", r.Exponents.K),
			fmt.Sprintf("%g", r.Exponents.M),
			fmt.Sprintf("%g", r.Exponents.N),
			r.Best.Scheme, r.Best.Setting,
			fmt.Sprintf("%.3f", r.Best.Relative))
	}
	return t
}
