package main

// Example runs the program and checks what it prints. The output is a
// pure function of the three seeded stage runs, so a change to the
// simulated results shows up here.
func Example() {
	main()
	// Output:
	// clumsy software line card: route -> nat -> drr
	// every stage at Cr = 0.5, parity, two-strike; 3000 packets
	//
	// stage         cyc/pkt base cyc/pkt   energy [J]  fallibility    EDF^2
	// route           671.7        761.6     0.007366       1.0000    0.698
	// nat             607.6        681.3     0.006763       1.0000    0.721
	// drr             570.6        641.6     0.006198       1.0000    0.715
	//
	// line card: 1849.9 cycles/packet (baseline 2084.5, 11.3% faster)
	//            0.02033 J (baseline 0.02252, 9.7% less energy)
	//            composed fallibility 1.0000
	//            EDF^2 0.711 of baseline
	//
	// at a 160 MHz core: 77 -> 86 kpps per pipeline
}
