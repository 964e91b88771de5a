package experiment

import (
	"fmt"
	"math"

	"clumsy/internal/cluster"
)

// The fleet study lifts the single-processor graceful-degradation curve to
// the fleet: a cluster of clumsy nodes behind the least-loaded dispatcher,
// with a growing fraction of the fleet terminally damaged (pinned stuck-at
// cells above the drain bar). Each point runs the full health lifecycle —
// degrade, drain-and-re-clock, failed probation, death, failover — and
// records how SLO attainment and the fleet drop rate decay as the fleet
// loses nodes. The acceptance shape mirrors the paper's single-node story:
// the curve falls gracefully, and the drop SLO holds until more than a
// third of the fleet is dead.

// FleetNodes is the fleet size of the degradation sweep.
const FleetNodes = 8

// FleetFracs are the swept faulty-node fractions of the fleet.
var FleetFracs = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75}

// FleetCell is one point of the fleet degradation sweep, averaged over
// trials.
type FleetCell struct {
	Frac        float64 // requested faulty-node fraction
	FaultyNodes int     // realised hostile node count (round(Frac x Nodes))

	Attainment float64 // mean fraction of arrivals served within the latency SLO
	DropRate   float64 // mean fleet drop rate (node drops + shed, over arrivals)
	DropSLOMet bool    // every trial kept the fleet drop rate under the SLO
	P50        float64 // mean p50 latency in virtual ticks
	P99        float64 // mean p99 latency in virtual ticks

	Deaths    float64 // mean nodes dead at run end
	NodesLive float64 // mean nodes still in rotation at run end
	Drains    float64 // mean drain-and-re-clock cycles
	Shed      float64 // mean packets shed per run
}

// fleetConfig is the common configuration of every sweep point: the
// least-loaded dispatcher (so the fault-free baseline is clean — flow
// hashing would pin the workload's hottest flow to one node and overload
// it with no faults at all), hostile nodes with pinned hard damage above
// the drain bar (so they are terminal, not merely slow), and a short
// drain ladder sized so the lifecycle completes within the packet budget.
func fleetConfig(app string, o Options, faulty int, seed uint64) cluster.Config {
	return cluster.Config{
		App:              app,
		Nodes:            FleetNodes,
		Packets:          o.Packets,
		Seed:             seed,
		Dispatch:         cluster.DispatchLeastLoaded,
		FaultyNodes:      faulty,
		FaultScale:       o.FaultScale,
		FaultyScale:      150,
		FaultyPreDisable: 0.10,
		Health:           cluster.HealthConfig{Window: 32, MaxDrains: 1, MaxCycleTime: 0.625},
	}
}

// Fleet sweeps the faulty-node fraction of an 8-node fleet and returns the
// fleet-level graceful-degradation curve for one application. Each cell is
// independent (its own seeds, no shared baseline), so journal resume is
// order-free.
func Fleet(app string, o Options) ([]FleetCell, error) {
	o = o.withDefaults()
	return grid(o, "fleet-"+app, len(FleetFracs),
		func(i int) any { return fmt.Sprintf("frac=%g", FleetFracs[i]) },
		func(i int) (FleetCell, error) {
			frac := FleetFracs[i]
			faulty := int(math.Round(frac * FleetNodes))
			cell := FleetCell{Frac: frac, FaultyNodes: faulty, DropSLOMet: true}
			// A fleet run is not a clumsy.Run, so the study keeps its own
			// trial loop and cancellation check.
			for trial := 0; trial < o.Trials; trial++ {
				if err := o.ctx().Err(); err != nil {
					return cell, err
				}
				r, err := cluster.Run(fleetConfig(app, o, faulty, o.trialSeed(trial)))
				if err != nil {
					return cell, fmt.Errorf("fleet %s frac=%g: %w", app, frac, err)
				}
				cell.Attainment += r.Attainment
				cell.DropRate += r.FleetDropRate
				cell.P50 += r.P50Latency
				cell.P99 += r.P99Latency
				cell.Deaths += float64(r.Deaths)
				cell.NodesLive += float64(r.NodesLive)
				cell.Drains += float64(r.Drains)
				cell.Shed += float64(r.Shed)
				if !r.DropSLOMet {
					cell.DropSLOMet = false
				}
			}
			n := float64(o.Trials)
			cell.Attainment /= n
			cell.DropRate /= n
			cell.P50 /= n
			cell.P99 /= n
			cell.Deaths /= n
			cell.NodesLive /= n
			cell.Drains /= n
			cell.Shed /= n
			return cell, nil
		})
}

// FleetRender formats the fleet degradation curve.
func FleetRender(app string, cells []FleetCell, o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("Fleet degradation: %s on %d nodes behind the least-loaded dispatcher (terminal hostile nodes)",
			app, FleetNodes),
		Header: []string{"Faulty", "Nodes", "Attainment", "Drop rate", "SLO", "p50", "p99", "Deaths", "Live", "Drains", "Shed"},
		Notes: []string{
			o.scaleNote("; hostile nodes: permanent regime x150 with 10% pinned hard damage"),
			"SLO column reports the fleet drop-rate objective; attainment is the latency objective",
		},
	}
	for _, c := range cells {
		slo := "met"
		if !c.DropSLOMet {
			slo = "BROKEN"
		}
		t.AddRow(
			fmt.Sprintf("%.1f%%", c.Frac*100),
			fmt.Sprintf("%d", c.FaultyNodes),
			fmt.Sprintf("%.1f%%", 100*c.Attainment),
			fmt.Sprintf("%.2f%%", 100*c.DropRate),
			slo,
			fmt.Sprintf("%.0f", c.P50),
			fmt.Sprintf("%.0f", c.P99),
			fmt.Sprintf("%.1f", c.Deaths),
			fmt.Sprintf("%.1f", c.NodesLive),
			fmt.Sprintf("%.1f", c.Drains),
			fmt.Sprintf("%.1f", c.Shed),
		)
	}
	return t
}
