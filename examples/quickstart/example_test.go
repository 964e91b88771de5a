package main

// Example runs the program and checks what it prints. The output is a
// pure function of the seeded route run, so a change to the simulated
// results shows up here.
func Example() {
	main()
	// Output:
	// clumsy packet processor — quickstart
	// application:       route (5000 packets)
	// operating point:   Cr = 0.50, parity, 2-strike recovery
	// delay:             742.2 -> 656.1 cycles/packet (11.6% faster)
	// energy:            0.01292 -> 0.01162 J (10.0% less)
	// fallibility:       1.0000 (fraction of packets with any error: 0.0000)
	// faults seen:       12 injected, 13 detected by parity, 1 recovered via L2
	// EDF^2 product:     0.703 of the fault-free baseline
}
