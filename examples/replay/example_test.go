package main

// Example runs the program and checks what it prints. The output is a
// pure function of the seeded route trace and its three replays, so a
// change to the simulated results shows up here.
func Example() {
	main()
	// Output:
	// captured 4000 packets to route.trace (542193 bytes)
	//
	// configuration                             cyc/pkt   energy [J]  fallibility    EDF^2
	// conservative (Cr=1)                         733.5      0.01027       1.0005    1.001
	// clumsy (Cr=0.5, parity, 2-strike)           649.0     0.009346       1.0003    0.705
	// reckless (Cr=0.25, no detection)            488.4     0.007075       1.5740    0.757
	//
	// every row processed the byte-identical packet sequence from the trace file
}
