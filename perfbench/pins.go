package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// Seed discipline. Every timed iteration of one process runs at its own
// seed, so no cache keyed on simulator inputs can turn repetition into a
// speed-up that a single study or run would never see. Iteration i of a
// run at workload seed s takes seed 1 + (37s + i) mod pool from a pool of
// seeds whose digests are pinned in pins.json; a run longer than the pool
// moves on to seeds outside it, which are checked structurally and whose
// digests are printed for comparison between commits. The warm-up
// operation of set-up uses a seed outside both.

// iterSeed returns the seed of timed iteration i and whether it is pinned.
func iterSeed(pool int, seed uint64, i int) (uint64, bool) {
	if i < pool {
		return 1 + (37*seed+uint64(i))%uint64(pool), true
	}
	return 1<<40 | seed<<20 | uint64(i), false
}

// warmupSeed is the seed of the untimed operation of set-up.
func warmupSeed(seed uint64) uint64 { return 1<<41 | seed }

// pinSet holds the digests of one workload definition, indexed by pool
// seed minus one.
type pinSet struct {
	Workload string   `json:"workload"`
	Digests  []string `json:"digests"`
}

// pins maps a definition key to its pinned digests.
type pins map[string]pinSet

//go:embed pins.json
var pinnedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("parse pins.json: %w", err)
	}
	return p, nil
}

// pinned returns the pinned digest of a pool seed, if there is one.
func (p pins) pinned(key string, seed uint64) (string, bool) {
	set, ok := p[key]
	if !ok || seed == 0 || seed > uint64(len(set.Digests)) {
		return "", false
	}
	d := set.Digests[seed-1]
	return d, d != ""
}

// writePins computes the digest of every pool seed of each workload and
// writes them, with the existing pins of other definitions, to path. An
// operation that fails or breaks a structural check aborts the write: a
// pinned digest must describe a correct output.
func writePins(ws []*workload, p pins, path string, logf func(string, ...any)) error {
	out := pins{}
	for k, v := range p {
		out[k] = v
	}
	for _, w := range ws {
		set := pinSet{Workload: w.name, Digests: make([]string, w.pool)}
		for j := range set.Digests {
			seed := uint64(j + 1)
			_, digest, err := w.op(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			set.Digests[j] = digest
			logf("pin %s seed=%d digest=%s", w.name, seed, digest)
		}
		out[w.def.key()] = set
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
