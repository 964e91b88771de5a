// Package service is the clumsyd control plane: a long-lived scheduler
// that runs journaled experiment campaigns on top of the campaign layer
// in internal/experiment. Campaigns are submitted over HTTP (see
// http.go), wait in a bounded queue, and execute under per-campaign
// supervisors with watchdog deadlines and bounded restart-with-resume.
// Every campaign's progress lives in an on-disk journal written through
// internal/atomicio, so a killed daemon re-adopts incomplete campaigns
// on startup and finishes them byte-identically to an uninterrupted run.
package service

import (
	"fmt"
	"io"

	"clumsy/internal/clumsy"
	"clumsy/internal/experiment"
)

// Spec describes one campaign submission: which study to run and the
// experiment scale. The zero values of the scale fields mean the
// experiment package defaults. The spec is persisted verbatim (spec.json)
// before the campaign is admitted, so an adopted campaign re-runs under
// exactly the submitted configuration.
type Spec struct {
	// Study names the campaign's study in the study registry of
	// internal/experiment, the same registry the clumsy CLI dispatches.
	Study string `json:"study"`
	// App selects the workload of a study that reads one. Empty means the
	// study's default; a study that reads no app rejects one.
	App string `json:"app,omitempty"`

	Packets     int     `json:"packets,omitempty"`
	Trials      int     `json:"trials,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	FaultScale  float64 `json:"scale,omitempty"`
	Recovery    string  `json:"recovery,omitempty"` // abort (default), drop, degrade; only for studies that take it
	MaxDropRate float64 `json:"max_drop_rate,omitempty"`

	// Format selects the rendering: "text" (default) or "csv".
	Format string `json:"format,omitempty"`
}

// Validate checks the spec against its study's registry entry under the
// rules the clumsy CLI applies to its flags, so a bad submission is
// rejected at the API instead of failing its supervisor later.
func (sp Spec) Validate() error {
	st, ok := experiment.LookupStudy(sp.Study)
	if !ok {
		return fmt.Errorf("service: unknown study %q (clumsyd -h lists the studies)", sp.Study)
	}
	if sp.Recovery != "" && !st.Recovery {
		return fmt.Errorf("service: study %q takes no recovery policy", sp.Study)
	}
	if _, err := clumsy.ParseRecoveryPolicy(sp.Recovery); err != nil {
		return err
	}
	if err := st.Check(sp.options(), sp.App, sp.Format); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// options maps a validated spec onto experiment.Options. Context,
// journal, and supervision knobs are filled in by the supervisor per
// attempt.
func (sp Spec) options() experiment.Options {
	pol, _ := clumsy.ParseRecoveryPolicy(sp.Recovery) // Validate rejected any other spelling
	return experiment.Options{
		Packets:     sp.Packets,
		Trials:      sp.Trials,
		FaultScale:  sp.FaultScale,
		Seed:        sp.Seed,
		Recovery:    pol,
		MaxDropRate: sp.MaxDropRate,
	}
}

// runStudy renders a validated spec's study into w. It is a variable so
// this package's tests can drive the supervisor with synthetic studies.
var runStudy = func(o experiment.Options, sp Spec, w io.Writer) error {
	st, _ := experiment.LookupStudy(sp.Study)
	return st.Run(o, sp.App, sp.Format, w)
}
