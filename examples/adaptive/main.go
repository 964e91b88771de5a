// Adaptive: watch the dynamic frequency-adaptation controller of Section 4
// steer the data-cache clock. The processor observes parity failures over
// 100-packet epochs and steps through the discrete frequency levels
// (Cr = 1, 0.75, 0.5, 0.25); this example prints where it spends its time
// and what that does to energy, delay, and errors.
package main

import (
	"fmt"
	"log"
	"strings"

	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/freqctl"
	"clumsy/internal/metrics"
)

func main() {
	fmt.Println("dynamic frequency adaptation — md5 signing, parity + three-strike")
	fmt.Println()

	res, err := clumsy.Run(clumsy.Config{
		App:       "md5",
		Packets:   4000,
		Seed:      7,
		Dynamic:   true,
		Detection: cache.DetectionParity,
		Strikes:   3,
	})
	if err != nil {
		log.Fatal(err)
	}

	levels := freqctl.DefaultLevels()
	fmt.Println("time spent per operating point:")
	var total uint64
	for _, n := range res.LevelPackets {
		total += n
	}
	for i, n := range res.LevelPackets {
		line := fmt.Sprintf("  Cr = %-5g %6d packets", levels[i], n)
		if total > 0 && 40*n/total > 0 {
			line += "  " + strings.Repeat("#", int(40*n/total))
		}
		fmt.Println(line)
	}
	fmt.Printf("frequency switches: %d (10-cycle penalty each)\n\n", res.Switches)

	fmt.Println("switch timeline:")
	for _, ev := range res.Timeline {
		fmt.Printf("  packet %5d -> Cr = %g\n", ev.Packet, ev.CycleTime)
	}
	fmt.Println()

	e := metrics.DefaultExponents()
	fmt.Printf("delay:       %.1f -> %.1f cycles/packet\n", res.GoldenDelay, res.Delay)
	fmt.Printf("energy:      %.4g -> %.4g J\n", res.GoldenEnergy.Total(), res.Energy.Total())
	fmt.Printf("fallibility: %.4f\n", res.Fallibility())
	fmt.Printf("relative EDF^2: %.3f\n", res.EDF(e)/res.GoldenEDF(e))

	// Compare against the best static setting for reference.
	static, err := clumsy.Run(clumsy.Config{
		App: "md5", Packets: 4000, Seed: 7, CycleTime: 0.5,
		Detection: cache.DetectionParity, Strikes: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstatic Cr=0.5 for comparison: relative EDF^2 = %.3f\n",
		static.EDF(e)/static.GoldenEDF(e))
	fmt.Println("(the paper finds the dynamic scheme tracks the static Cr=0.5 region without beating it)")
}
