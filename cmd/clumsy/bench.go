package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"clumsy/internal/bench"
)

// benchCommand implements `clumsy bench`: by default it runs the benchmark
// suite and writes an auto-numbered BENCH_<n>.json snapshot; with -compare
// it diffs two existing snapshots and fails when a tracked metric
// regressed beyond the threshold.
func benchCommand(o cliOpts, w io.Writer) error {
	if o.compare {
		return benchCompare(o, w)
	}
	opts := bench.Options{Quick: o.quick}
	if o.progress {
		opts.Progress = os.Stderr
	}
	snap, err := bench.Run(opts)
	if err != nil {
		return err
	}
	path := o.snapshot
	if path == "" {
		path, err = bench.NextSnapshotPath(".")
		if err != nil {
			return err
		}
	}
	if err := bench.WriteSnapshot(path, snap); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d cases, mode %s, go %s\n",
		path, len(snap.Cases), snap.Mode, snap.Env.GoVersion)
	return nil
}

// benchCompare diffs two snapshots. The comparison itself always renders
// (text table or -format json); a regression beyond the threshold then
// turns into a non-zero exit so CI can gate on it.
func benchCompare(o cliOpts, w io.Writer) error {
	if len(o.args) != 2 {
		return fmt.Errorf("bench -compare needs exactly two snapshot files (got %d); note flags must precede the file arguments", len(o.args))
	}
	oldSnap, err := bench.ReadSnapshot(o.args[0])
	if err != nil {
		return err
	}
	newSnap, err := bench.ReadSnapshot(o.args[1])
	if err != nil {
		return err
	}
	cmp := bench.Compare(oldSnap, newSnap, o.threshold)
	if o.format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cmp); err != nil {
			return err
		}
	} else {
		if err := cmp.WriteText(w); err != nil {
			return err
		}
	}
	if regs := cmp.Regressions(); len(regs) > 0 {
		return fmt.Errorf("bench: %s", cmp.Verdict())
	}
	return nil
}
