package cache

// HealthEvidence is a non-destructive snapshot of the L1D's recovery-ladder
// state, exported for fleet-level health assessment. Unlike
// TakeEpochEvidence — which the frequency controller consumes at epoch
// boundaries and which resets the per-epoch strike tracking — reading
// health evidence never perturbs the ladder, so a dispatcher polling node
// health cannot change simulated behaviour.
type HealthEvidence struct {
	DisabledLines    int     // frames currently dead
	DisabledFraction float64 // fraction of L1D capacity dead
	CycleTime        float64 // current relative cycle time
}

// Health returns the current ladder evidence without consuming it.
func (c *L1Data) Health() HealthEvidence {
	return HealthEvidence{
		DisabledLines:    c.deadLines,
		DisabledFraction: c.DisabledFraction(),
		CycleTime:        c.cr,
	}
}
