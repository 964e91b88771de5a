// Replay: capture a workload to a trace file, then replay the identical
// packet sequence under several clumsy configurations and diff them. The
// golden/faulty comparison machinery requires byte-identical inputs across
// runs, and the binary trace format (packet.Trace.Serialize/ReadTrace)
// makes the workload a durable artifact — the same property that lets a
// bug report ship with the exact trace that triggered it.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/clumsy"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
)

func main() {
	dir, err := os.MkdirTemp("", "clumsy-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "route.trace")

	// 1. Capture: generate the route workload once and persist it.
	app, err := apps.New("route")
	if err != nil {
		log.Fatal(err)
	}
	trace := packet.MustGenerate(app.TraceConfig(4000, 7))
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Serialize(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("captured %d packets to %s (%d bytes)\n\n", len(trace.Packets), filepath.Base(path), info.Size())

	// 2. Replay the identical trace under three configurations.
	configs := []struct {
		name string
		cfg  clumsy.Config
	}{
		{"conservative (Cr=1)", clumsy.Config{App: "route", Seed: 7, CycleTime: 1}},
		{"clumsy (Cr=0.5, parity, 2-strike)", clumsy.Config{App: "route", Seed: 7,
			CycleTime: 0.5, Detection: cache.DetectionParity, Strikes: 2}},
		{"reckless (Cr=0.25, no detection)", clumsy.Config{App: "route", Seed: 7,
			CycleTime: 0.25, FaultScale: 25}},
	}

	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := packet.ReadTrace(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}

	e := metrics.DefaultExponents()
	fmt.Printf("%-36s %12s %12s %12s %8s\n", "configuration", "cyc/pkt", "energy [J]", "fallibility", "EDF^2")
	for _, c := range configs {
		res, err := clumsy.RunWithTrace(c.cfg, replayed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %12.1f %12.4g %12.4f %8.3f\n",
			c.name, res.Delay, res.Energy.Total(), res.Fallibility(),
			res.EDF(e)/res.GoldenEDF(e))
	}
	fmt.Println("\nevery row processed the byte-identical packet sequence from the trace file")
}
