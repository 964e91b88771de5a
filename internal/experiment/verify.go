package experiment

import (
	"fmt"
	"math"

	"clumsy/internal/cache"
	"clumsy/internal/circuit"
	"clumsy/internal/clumsy"
)

// Claims regression harness: the paper's headline claims, checked
// programmatically against the simulator. `clumsy verify` runs it; a claim
// that stops holding after a model change fails loudly instead of drifting
// silently in a table nobody re-reads.

// Claim is one verified statement.
type Claim struct {
	Name   string
	Detail string
	Pass   bool
}

// claimRun is what the claims read of one simulation.
type claimRun struct {
	Fallibility              float64
	Fatal                    bool
	ParityErrors, Recoveries uint64
}

// VerifyClaims evaluates the headline claims. The simulation-backed checks
// use a compact deterministic configuration (route/crc/md5 at the
// exposure-equalised fault scale), so the whole run takes tens of seconds.
func VerifyClaims(o Options) ([]Claim, error) {
	o = o.edfDefaults()
	var claims []Claim
	add := func(name string, pass bool, detail string, args ...any) {
		claims = append(claims, Claim{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	// C1 — circuit knee (Figure 5): flat to ~half cycle time, sharp at 0.25.
	cell := circuit.DefaultCell()
	base := cell.FaultProbability(1)
	r75 := cell.FaultProbability(0.75) / base
	r50 := cell.FaultProbability(0.50) / base
	r25 := cell.FaultProbability(0.25) / base
	add("fault-curve knee", r75 < 2.5 && r50 > 1.5 && r50 < 8 && r25 > 10,
		"fault-rate ratios %.2f / %.2f / %.2f at Cr=0.75/0.5/0.25", r75, r50, r25)

	// C2 — cache-energy reductions track the paper's 6%/19%/45%.
	redOK := true
	detail := ""
	for _, c := range []struct{ cr, want float64 }{{0.75, 0.06}, {0.5, 0.19}, {0.25, 0.45}} {
		red := 1 - circuit.VoltageSwing(c.cr)
		detail += fmt.Sprintf("%.0f%%@Cr=%g ", red*100, c.cr)
		if math.Abs(red-c.want) > 0.03 {
			redOK = false
		}
	}
	add("cache-energy reductions", redOK, "%s(paper: 6%%/19%%/45%%)", detail)

	// C3 and C4 read three simulations, each its own journal cell.
	configs := []clumsy.Config{
		{App: "md5", Packets: o.Packets, Seed: o.trialSeed(0), CycleTime: 0.5, FaultScale: 1},
		{App: "md5", Packets: o.Packets, Seed: o.trialSeed(0), CycleTime: 0.25, FaultScale: 1},
		{App: "route", Packets: o.Packets, Seed: o.trialSeed(0), CycleTime: 0.25,
			Detection: cache.DetectionParity, Strikes: 2, FaultScale: o.FaultScale},
	}
	runs, err := grid(o, "verify", len(configs), func(int) any { return nil }, func(i int) (claimRun, error) {
		res, err := o.run(configs[i])
		if err != nil {
			return claimRun{}, err
		}
		return claimRun{Fallibility: res.Fallibility(), Fatal: res.Report.Fatal,
			ParityErrors: res.Recovery.ParityErrors, Recoveries: res.Recovery.Recoveries}, nil
	})
	if err != nil {
		return nil, err
	}

	// C3 — fallibility rises with frequency but stays bounded at the
	// paper's physical rate (Table I band).
	f50, f25, parity := runs[0], runs[1], runs[2]
	add("fallibility band (md5)",
		f25.Fallibility > f50.Fallibility && f25.Fallibility < 1.5 && f50.Fallibility < 1.1,
		"fallibility %.3f @0.5, %.3f @0.25 (paper: 1.055 / 1.261)",
		f50.Fallibility, f25.Fallibility)

	// C4 — detection keeps runs alive at 4x over-clocking.
	add("parity survives 4x", !parity.Fatal && parity.ParityErrors > 0,
		"fatal=%v, %d parity errors, %d recoveries",
		parity.Fatal, parity.ParityErrors, parity.Recoveries)

	// C5/C6/C7 — the EDF landscape on a fast three-app subset.
	subset := []string{"route", "crc", "md5"}
	var grids []*EDFResult
	for _, app := range subset {
		g, err := EDFGrid(app, o)
		if err != nil {
			return nil, err
		}
		grids = append(grids, g)
	}
	avg := EDFAverage(grids)

	bestParity05 := math.Inf(1)
	for _, scheme := range []string{"one-strike", "two strikes", "three strikes"} {
		if c := avg.Cell(scheme, "0.5"); c != nil && c.Relative < bestParity05 {
			bestParity05 = c.Relative
		}
	}
	add("parity family at Cr=0.5 wins", avg.Best().Setting == "0.5" && bestParity05 < 0.85,
		"best cell %s at %s (%.3f); parity family at 0.5 reaches %.3f",
		avg.Best().Scheme, avg.Best().Setting, avg.Best().Relative, bestParity05)

	nd05 := avg.Cell("no detection", "0.5")
	nd25 := avg.Cell("no detection", "0.25")
	add("no-detection worsens past 2x", nd25 != nil && nd05 != nil && nd25.Relative > nd05.Relative,
		"no-detection EDF %.3f @0.5 -> %.3f @0.25", nd05.Relative, nd25.Relative)

	bestStatic := math.Inf(1)
	worstDynamic := 0.0
	bestDynamic := math.Inf(1)
	for _, scheme := range []string{"one-strike", "two strikes", "three strikes"} {
		for _, setting := range []string{"1", "0.75", "0.5", "0.25"} {
			if c := avg.Cell(scheme, setting); c != nil && c.Relative < bestStatic {
				bestStatic = c.Relative
			}
		}
		if c := avg.Cell(scheme, "dynamic"); c != nil {
			if c.Relative > worstDynamic {
				worstDynamic = c.Relative
			}
			if c.Relative < bestDynamic {
				bestDynamic = c.Relative
			}
		}
	}
	add("dynamic does not beat best static", bestDynamic >= bestStatic-0.02,
		"dynamic %.3f..%.3f vs best static %.3f", bestDynamic, worstDynamic, bestStatic)

	return claims, nil
}

// VerifyRender formats the claim list.
func VerifyRender(claims []Claim, o Options) *Table {
	o = o.edfDefaults()
	t := &Table{
		Title:  "Claims regression: the paper's headline results, checked programmatically",
		Header: []string{"claim", "status", "measured"},
		Notes:  []string{o.scaleNote("; simulation-backed checks use route/crc/md5")},
	}
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		t.AddRow(c.Name, status, c.Detail)
	}
	return t
}
