// Faultsweep: walk the circuit model across the whole operating range and
// print the frontier the paper's Figure 5 and Section 5.4 trade along —
// cycle time vs voltage swing vs per-bit fault probability vs cache energy
// — then confirm the fault rates empirically with the injector.
package main

import (
	"fmt"

	"clumsy/internal/circuit"
	"clumsy/internal/fault"
)

func main() {
	cell := circuit.DefaultCell()
	fit := circuit.FitFaultCurve(cell, 0.2, 40)

	fmt.Println("clumsy cache operating frontier")
	fmt.Println()
	fmt.Printf("%-8s %-10s %-14s %-14s %-12s\n",
		"Cr", "swing", "P_E(model)", "P_E(fitted)", "cache energy")
	for _, cr := range []float64{1, 0.9, 0.8, 0.75, 0.6, 0.5, 0.4, 0.3, 0.25} {
		vsr := circuit.VoltageSwing(cr)
		fmt.Printf("%-8.2f %-10.3f %-14.4g %-14.4g %.1f%%\n",
			cr, vsr, cell.FaultProbability(cr), fit.Eval(cr), vsr*100)
	}
	fmt.Printf("\nfitted formula: %s\n", fit)

	// Empirical check: drive the injector at an amplified rate and compare
	// the observed fault frequency with the model.
	fmt.Println("\nempirical injector check (scale 1e4, 32-bit accesses):")
	model := fault.NewModel(1e4)
	rng := fault.NewRNG(42)
	for _, cr := range []float64{1, 0.5, 0.25} {
		inj := fault.NewInjector(model, rng.Fork(uint64(cr*100)), 32)
		inj.SetCycleTime(cr)
		const n = 2_000_000
		faults := 0
		for i := 0; i < n; i++ {
			if inj.NextAt(uint64(i*4)) != 0 {
				faults++
			}
		}
		want := model.EventRate(cr, 32)
		got := float64(faults) / n
		fmt.Printf("  Cr=%-5g expected %.4g, observed %.4g (%+.1f%%)\n",
			cr, want, got, (got/want-1)*100)
	}
}
