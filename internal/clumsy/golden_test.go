package clumsy

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"clumsy/internal/apps"
	"clumsy/internal/cache"
	"clumsy/internal/telemetry"
	"clumsy/internal/workload"
)

// goldenZeroed gives every Config field that goldenKey zeroes the values
// under which the golden pass must not change; goldenKept lists the fields
// that stay in the key, the last five of them pinned to zero by
// Config.check. Together they classify every field of Config.
var (
	goldenZeroed = map[string][]func(*Config){
		"CycleTime":      {func(c *Config) { c.CycleTime = 0.25 }},
		"Dynamic":        {func(c *Config) { c.Dynamic = true }},
		"X1":             {func(c *Config) { c.Dynamic, c.X1 = true, 1.2 }},
		"X2":             {func(c *Config) { c.Dynamic, c.X2 = true, 0.3 }},
		"Strikes":        {func(c *Config) { c.Strikes = 3 }},
		"SubBlock":       {func(c *Config) { c.SubBlock = true }},
		"FaultScale":     {func(c *Config) { c.FaultScale = 150 }},
		"Planes":         {func(c *Config) { c.Planes = PlaneControl }, func(c *Config) { c.Planes = PlaneData }},
		"Regime":         {func(c *Config) { c.Regime = RegimeBurst }, func(c *Config) { c.Regime = RegimePermanent }},
		"PreDisableFrac": {func(c *Config) { c.PreDisableFrac = 0.1 }},
		"Recovery":       {func(c *Config) { c.Recovery = RecoverDrop }, func(c *Config) { c.Recovery = RecoverDegrade }},
		"MaxDropRate":    {func(c *Config) { c.Recovery, c.MaxDropRate = RecoverDrop, 0.05 }},
		"Telemetry":      {func(c *Config) { c.Telemetry = telemetry.New() }},
	}
	goldenKept = []string{"App", "Packets", "Seed", "Detection", "WatchdogFactor",
		"ScrubInterval", "StateStrikes", "Workload", "L1DSize",
		"EpochPackets", "MinDwellEpochs", "LineDisableStrikes", "LineDisableWindow", "SpaceBytes"}
)

// TestGoldenKeyInventory classifies every Config field as zeroed by
// goldenKey or kept in it, so a field added to Config fails here until
// someone decides which it is, and the zeroed set is exactly the set the
// oracle below varies.
func TestGoldenKeyInventory(t *testing.T) {
	var all Config
	v := reflect.ValueOf(&all).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(1)
		case reflect.String:
			f.SetString("x")
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Config.%s: kind %v has no non-zero value here; extend the inventory", v.Type().Field(i).Name, f.Kind())
		}
	}
	key := reflect.ValueOf(goldenKey(all))
	var zeroed, kept []string
	for i := 0; i < key.NumField(); i++ {
		name := key.Type().Field(i).Name
		if key.Field(i).IsZero() {
			zeroed = append(zeroed, name)
		} else {
			kept = append(kept, name)
		}
	}
	slices.Sort(zeroed)
	slices.Sort(kept)
	wantZeroed := slices.Sorted(maps.Keys(goldenZeroed))
	wantKept := slices.Sorted(slices.Values(goldenKept))
	if !slices.Equal(zeroed, wantZeroed) {
		t.Errorf("goldenKey zeroes %v, the oracle varies %v: classify every field in goldenZeroed (with values) or goldenKept", zeroed, wantZeroed)
	}
	if !slices.Equal(kept, wantKept) {
		t.Errorf("goldenKey keeps %v, goldenKept lists %v: classify every field in goldenZeroed (with values) or goldenKept", kept, wantKept)
	}
}

// TestGoldenKeyOracle runs the golden pass of every registered app under a
// base configuration and under each value of each field goldenKey zeroes
// (and all of them at once), and requires the same key and a bit-identical
// golden pass: the folded numbers, the budget, the recorder and the trace.
func TestGoldenKeyOracle(t *testing.T) {
	passOf := func(t *testing.T, cfg Config) (*golden, []byte) {
		t.Helper()
		trace, err := generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGolden(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := g.trace.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		return g, b.Bytes()
	}
	fold := func(g *golden) string {
		c := *g
		c.trace, c.rec = nil, nil
		return fmt.Sprintf("%+v", c)
	}
	names := slices.Sorted(maps.Keys(goldenZeroed))
	type variant struct {
		name string
		set  func(*Config)
	}
	var variants []variant
	for _, name := range names {
		for i, set := range goldenZeroed[name] {
			variants = append(variants, variant{fmt.Sprintf("%s#%d", name, i), set})
		}
	}
	variants = append(variants, variant{"all", func(c *Config) {
		for _, name := range names {
			for _, set := range goldenZeroed[name] {
				set(c)
			}
		}
	}})

	for _, app := range append(apps.Names(), apps.Extras()...) {
		t.Run(app, func(t *testing.T) {
			base := Config{App: app, Packets: 80, Seed: 5, Detection: cache.DetectionParity, ScrubInterval: 16}.withDefaults()
			want, wantTrace := passOf(t, base)
			for _, v := range variants {
				cfg := base
				v.set(&cfg)
				cfg = cfg.withDefaults()
				if goldenKey(cfg) != goldenKey(base) {
					t.Errorf("%s: key differs from the base key", v.name)
					continue
				}
				got, gotTrace := passOf(t, cfg)
				switch {
				case fold(got) != fold(want):
					t.Errorf("%s: golden fold differs:\n got %s\nwant %s", v.name, fold(got), fold(want))
				case !reflect.DeepEqual(got.rec.Init, want.rec.Init) || !reflect.DeepEqual(got.rec.Packets, want.rec.Packets):
					t.Errorf("%s: golden recorder differs", v.name)
				case !bytes.Equal(gotTrace, wantTrace):
					t.Errorf("%s: trace differs", v.name)
				}
			}
		})
	}
}

// TestGoldenCacheMatchesRun feeds one app and seed's EDF grid plus
// reliability-, subblock-, ecc-, geometry- and state-style variants to one
// cache from eight goroutines. Every Result must equal a fresh Run's, and
// the cache must hold exactly the golden passes the configurations need,
// so sharing cannot quietly stop.
func TestGoldenCacheMatchesRun(t *testing.T) {
	base := Config{App: "route", Packets: 120, Seed: 7, FaultScale: 25}
	var cfgs []Config
	add := func(c Config) { cfgs = append(cfgs, c) }
	// The EDF grid: four detection/strike schemes x five settings share
	// two golden passes, one per detection scheme.
	for _, sch := range []struct {
		det     cache.Detection
		strikes int
	}{{cache.DetectionNone, 1}, {cache.DetectionParity, 1}, {cache.DetectionParity, 2}, {cache.DetectionParity, 3}} {
		for _, cr := range []float64{1, 0.75, 0.5, 0.25, 0} {
			c := base
			c.Detection, c.Strikes = sch.det, sch.strikes
			if cr == 0 {
				c.Dynamic = true
			} else {
				c.CycleTime = cr
			}
			add(c)
		}
	}
	parity := base
	parity.Detection, parity.Strikes, parity.CycleTime = cache.DetectionParity, 2, 0.5
	// Reliability-style: every regime x policy, sharing the parity pass.
	for _, regime := range []FaultRegime{RegimePaper, RegimeBurst, RegimePermanent} {
		for _, policy := range []RecoveryPolicy{RecoverAbort, RecoverDrop, RecoverDegrade} {
			c := parity
			c.Regime, c.Recovery = regime, policy
			add(c)
		}
	}
	// Subblock-style: sharing the parity pass.
	for _, cr := range []float64{1, 0.5} {
		c := parity
		c.SubBlock, c.CycleTime = true, cr
		add(c)
	}
	// Ecc-style: one more pass.
	for _, cr := range []float64{1, 0.5} {
		c := parity
		c.Detection, c.CycleTime = cache.DetectionECC, cr
		add(c)
	}
	// Geometry-style: one more pass per size.
	for _, size := range []int{1024, 16384} {
		c := parity
		c.L1DSize = size
		add(c)
	}
	// State-style: a stateful app under drop, one pass per scrub interval
	// and workload shape, shared across regimes.
	spec := &workload.Spec{Shape: workload.ShapeFlash, Adversarial: 0.15, Churn: 0.25}
	for _, regime := range []FaultRegime{RegimePaper, RegimeBurst} {
		for _, scrub := range []int{DefaultScrubInterval, -1} {
			for _, w := range []*workload.Spec{nil, spec} {
				c := parity
				c.App, c.Recovery, c.Regime, c.ScrubInterval, c.Workload = "fw", RecoverDrop, regime, scrub, w
				add(c)
			}
		}
	}
	const wantPasses = 2 + 1 + 2 + 4

	var gc GoldenCache
	jobs := make(chan Config)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range jobs {
				got, err := gc.Run(cfg)
				if err != nil {
					t.Errorf("%+v: cached run: %v", cfg, err)
					continue
				}
				want, err := Run(cfg)
				if err != nil {
					t.Errorf("%+v: fresh run: %v", cfg, err)
					continue
				}
				if g, w := runDigestBytes(got), runDigestBytes(want); !bytes.Equal(g, w) {
					t.Errorf("cached run differs from a fresh Run:\n got %s\nwant %s", g, w)
				}
			}
		}()
	}
	for _, cfg := range cfgs {
		jobs <- cfg
	}
	close(jobs)
	wg.Wait()
	if n := len(gc.passes); n != wantPasses {
		t.Errorf("cache holds %d golden passes for %d runs, want %d", n, len(cfgs), wantPasses)
	}

	// An error reaches every run sharing the key, as Run reports it.
	_, want := Run(Config{App: "nosuchapp"})
	for i := 0; i < 2; i++ {
		if _, err := gc.Run(Config{App: "nosuchapp"}); err == nil || err.Error() != want.Error() {
			t.Errorf("cached run of an unknown app: %v, want %v", err, want)
		}
	}
}
