package main

// Example runs the program and checks what it prints. The output is a
// pure function of the circuit model and the seeded injector, so a
// change to the simulated results shows up here.
func Example() {
	main()
	// Output:
	// clumsy cache operating frontier
	//
	// Cr       swing      P_E(model)     P_E(fitted)    cache energy
	// 1.00     1.000      2.59e-07       2.431e-07      100.0%
	// 0.90     0.978      2.942e-07      2.886e-07      97.8%
	// 0.80     0.950      3.49e-07       3.542e-07      95.0%
	// 0.75     0.932      3.881e-07      3.986e-07      93.2%
	// 0.60     0.863      5.991e-07      6.206e-07      86.3%
	// 0.50     0.798      9.177e-07      9.312e-07      79.8%
	// 0.40     0.713      1.664e-06      1.625e-06      71.3%
	// 0.30     0.600      3.909e-06      3.727e-06      60.0%
	// 0.25     0.531      6.932e-06      6.792e-06      53.1%
	//
	// fitted formula: P_E = 1.48e-08 * e^(2.8 * Fr^0.57)   (R^2 = 0.99908)
	//
	// empirical injector check (scale 1e4, 32-bit accesses):
	//   Cr=1     expected 0.08379, observed 0.08398 (+0.2%)
	//   Cr=0.5   expected 0.2969, observed 0.2963 (-0.2%)
	//   Cr=0.25  expected 1, observed 1 (+0.0%)
}
