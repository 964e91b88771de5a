package main

// Example runs the program and checks what it prints. The output is a
// pure function of the seeded dynamic and static md5 runs, so a change
// to the simulated results shows up here.
func Example() {
	main()
	// Output:
	// dynamic frequency adaptation — md5 signing, parity + three-strike
	//
	// time spent per operating point:
	//   Cr = 1        700 packets  #######
	//   Cr = 0.75    2800 packets  ############################
	//   Cr = 0.5      500 packets  #####
	//   Cr = 0.25       0 packets
	// frequency switches: 11 (10-cycle penalty each)
	//
	// switch timeline:
	//   packet   100 -> Cr = 0.75
	//   packet   200 -> Cr = 1
	//   packet   400 -> Cr = 0.75
	//   packet   600 -> Cr = 1
	//   packet  1000 -> Cr = 0.75
	//   packet  1100 -> Cr = 0.5
	//   packet  1300 -> Cr = 0.75
	//   packet  2100 -> Cr = 0.5
	//   packet  2300 -> Cr = 0.75
	//   packet  3900 -> Cr = 0.5
	//   packet  4000 -> Cr = 0.75
	//
	// delay:       9684.5 -> 9012.5 cycles/packet
	// energy:      0.1115 -> 0.1042 J
	// fallibility: 1.0012
	// relative EDF^2: 0.811
	//
	// static Cr=0.5 for comparison: relative EDF^2 = 0.628
	// (the paper finds the dynamic scheme tracks the static Cr=0.5 region without beating it)
}
