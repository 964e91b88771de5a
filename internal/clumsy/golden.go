package clumsy

import (
	"errors"
	"fmt"
	"sync"

	"clumsy/internal/cache"
	"clumsy/internal/energy"
	"clumsy/internal/metrics"
	"clumsy/internal/packet"
)

// golden is a finished golden (fault-free, full-swing) pass: the trace it
// ran and everything a faulty pass and its Result read from it. It never
// holds the golden Node, so the golden machine is garbage as soon as the
// pass is folded, and nothing writes it after construction, so faulty
// passes may share one concurrently.
type golden struct {
	trace  *packet.Trace
	rec    *metrics.Recorder
	cal    Calibration // watchdog budget and data-plane delay
	cycles float64
	instrs uint64
	energy energy.Breakdown
	l1d    cache.Stats
}

// newGolden runs the fault-free reference: a node opened with injection
// off — no ladder, no controller, no checkpoint, no telemetry, no watchdog
// — DMAing into the arena, fed the whole trace. It is the one golden pass
// of Run, RunWithTrace, Calibrate and GoldenCache.
func newGolden(cfg Config, trace *packet.Trace) (*golden, error) {
	if trace == nil || len(trace.Packets) == 0 {
		return nil, errors.New("clumsy: empty trace")
	}
	cfg.Packets = len(trace.Packets)
	n, err := openNode(cfg, trace, nodeOpts{arena: true})
	if err == nil {
		err = n.serve(trace)
	}
	if err != nil {
		return nil, fmt.Errorf("clumsy: golden run failed: %w", err)
	}
	if n.fatal != nil {
		return nil, fmt.Errorf("clumsy: golden run must not die: %w", n.fatal)
	}
	var r Result
	n.fold(&r)
	return &golden{
		trace: trace,
		rec:   n.rec,
		cal: Calibration{
			Budget: uint64(cfg.WatchdogFactor * float64(n.maxPacketInstrs)),
			Delay:  r.Delay,
		},
		cycles: r.Cycles,
		instrs: r.Instrs,
		energy: r.Energy,
		l1d:    r.L1DStats,
	}, nil
}

// goldenKey is the part of a defaulted configuration that the trace and
// the golden pass read: cfg with every field they never read set to zero.
// openNode reads the zeroed fields only under injection, only on the
// parity-error path (Strikes, SubBlock), or not at all. Every other field
// stays in the key, including a field added to Config until it is listed
// here, so forgetting one costs sharing, never a wrong result; the fields
// check pins to zero stay too. The key is a map key, so Config must stay
// comparable.
func goldenKey(cfg Config) Config {
	cfg.CycleTime, cfg.Dynamic = 0, false
	cfg.X1, cfg.X2 = 0, 0
	cfg.Strikes, cfg.SubBlock = 0, false
	cfg.FaultScale, cfg.Planes, cfg.Regime = 0, 0, 0
	cfg.PreDisableFrac = 0
	cfg.Recovery, cfg.MaxDropRate = 0, 0
	cfg.Telemetry = nil
	return cfg
}

// A GoldenCache shares the trace and the golden pass among runs whose
// configurations agree on every input of the golden pass, such as the
// scheme x setting cells of one EDF grid. The zero value is ready to use
// and safe for concurrent use. It keeps every trace and golden recorder it
// computed for as long as it lives, so it should live for one campaign.
type GoldenCache struct {
	mu     sync.Mutex
	passes map[Config]func() (*golden, error)
}

// Run is Run(cfg) with the golden pass taken from the cache. The first run
// with cfg's golden inputs computes it and concurrent runs with the same
// inputs wait for it; an error or panic of that pass reaches all of them.
// A configuration the model cannot simulate fails before it reaches the
// cache.
func (c *GoldenCache) Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	key := goldenKey(cfg)
	c.mu.Lock()
	pass, ok := c.passes[key]
	if !ok {
		pass = sync.OnceValues(func() (*golden, error) {
			trace, err := generate(cfg)
			if err != nil {
				return nil, err
			}
			return newGolden(cfg, trace)
		})
		if c.passes == nil {
			c.passes = make(map[Config]func() (*golden, error))
		}
		c.passes[key] = pass
	}
	c.mu.Unlock()
	g, err := pass()
	if err != nil {
		return nil, err
	}
	return g.run(cfg)
}
