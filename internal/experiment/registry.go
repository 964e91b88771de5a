package experiment

import (
	"fmt"
	"io"
	"slices"

	"clumsy/internal/apps"
	"clumsy/internal/clumsy"
)

// Study is one entry of the study registry: a named part of the evaluation,
// the inputs it reads, and its rendering. The clumsy CLI, the clumsyd
// service and the benchmark harness all dispatch studies through the
// registry, so a study name renders the same bytes on every surface.
type Study struct {
	Name string
	Help string // one-line description
	// App is the application the study runs when none is given. It is
	// empty when the study reads no application, or when it reads one but
	// has no default (NeedsApp).
	App      string
	NeedsApp bool
	// Recovery reports whether the study runs under the campaign-wide
	// Options.Recovery. The circuit figures and the fleet study never read
	// it, and reliability and state choose their policies themselves.
	Recovery bool
	// Circuit marks the figures of the circuit model (fig1b to fig5),
	// which simulate nothing and read no Options.
	Circuit bool

	run studyFunc
}

// studyFunc runs a study for app and renders it to out.
type studyFunc func(o Options, app string, out *output) error

// ReadsApp reports whether the study takes an application.
func (s Study) ReadsApp() bool { return s.App != "" || s.NeedsApp }

// Check reports whether the study accepts the scale and cell deadline of
// o, app (empty = the study's default) and the output format (empty =
// text). A zero scale value means the default and a zero deadline none;
// a negative one is an error that names it. A circuit figure takes no
// scale value, and a drop-rate bound needs a recovery policy that drops.
func (s Study) Check(o Options, app, format string) error {
	for _, v := range []struct {
		name  string
		value float64
	}{
		{"packets", float64(o.Packets)},
		{"trials", float64(o.Trials)},
		{"scale", o.FaultScale},
		{"seed", float64(o.Seed)},
		{"max-drop-rate", o.MaxDropRate},
	} {
		switch {
		case v.value < 0:
			return fmt.Errorf("%s: %s must not be negative, got %g", s.Name, v.name, v.value)
		case v.value != 0 && s.Circuit:
			return fmt.Errorf("%s: the circuit model takes no %s", s.Name, v.name)
		}
	}
	switch {
	case s.Recovery && o.MaxDropRate > 0 && o.Recovery == clumsy.RecoverAbort:
		return fmt.Errorf("%s: max-drop-rate applies only under recovery drop or degrade", s.Name)
	case o.RunTimeout < 0:
		return fmt.Errorf("%s: run-timeout must not be negative, got %v", s.Name, o.RunTimeout)
	case format != "" && format != "text" && format != "csv":
		return fmt.Errorf("%s: unknown format %q (want text or csv)", s.Name, format)
	case app == "" && s.NeedsApp:
		return fmt.Errorf("%s: needs an app", s.Name)
	case app == "":
		return nil
	case !s.ReadsApp():
		return fmt.Errorf("%s: takes no app", s.Name)
	}
	_, err := apps.New(app)
	return err
}

// Run checks the inputs, then runs the study and renders it to w as text
// or CSV.
func (s Study) Run(o Options, app, format string, w io.Writer) error {
	if err := s.Check(o, app, format); err != nil {
		return err
	}
	if app == "" {
		app = s.App
	}
	out := &output{w: w, csv: format == "csv"}
	if err := s.run(o, app, out); err != nil {
		return err
	}
	return out.err
}

// Studies returns the registry in listing order.
func Studies() []Study { return slices.Clone(studies) }

// LookupStudy returns the registry entry of a study name.
func LookupStudy(name string) (Study, bool) {
	i := slices.IndexFunc(studies, func(s Study) bool { return s.Name == name })
	if i < 0 {
		return Study{}, false
	}
	return studies[i], true
}

// studies is the registry. It holds only functions known at compile
// time, so a program that never looks a study up links none of them. The
// per-study journal keys live in the study functions themselves, so
// renaming or reordering entries here leaves existing journals resumable.
var studies = []Study{
	{Name: "fig1b", Help: "voltage swing vs cycle time (circuit model)", Circuit: true, run: func(_ Options, _ string, out *output) error { return figure(out, Fig1b) }},
	{Name: "fig2b", Help: "SRAM noise-immunity curves", Circuit: true, run: func(_ Options, _ string, out *output) error { return figure(out, Fig2b) }},
	{Name: "fig3", Help: "switching-combination noise distribution", Circuit: true, run: func(_ Options, _ string, out *output) error { return figure(out, Fig3) }},
	{Name: "fig4", Help: "fault probability vs voltage swing", Circuit: true, run: func(_ Options, _ string, out *output) error { return figure(out, Fig4) }},
	{Name: "fig5", Help: "fault probability vs cycle time + fitted formula (Eq. 4)", Circuit: true, run: func(_ Options, _ string, out *output) error { return figure(out, Fig5) }},
	{Name: "table1", Help: "application properties and fallibility factors", Recovery: true, run: runTable1},
	{Name: "fig6", Help: "error probabilities per plane (control/data/both); route by default", App: "route", Recovery: true, run: runFig6},
	{Name: "fig7", Help: "error probabilities per plane (control/data/both); nat by default", App: "nat", Recovery: true, run: runFig7},
	{Name: "fig8", Help: "fatal error probabilities per application", Recovery: true, run: runFig8},
	{Name: "fig9", Help: "EDF^2 panels: route, crc", Recovery: true, run: func(o Options, _ string, out *output) error { return edfPanels(o, out, "route", "crc") }},
	{Name: "fig10", Help: "EDF^2 panels: md5, tl", Recovery: true, run: func(o Options, _ string, out *output) error { return edfPanels(o, out, "md5", "tl") }},
	{Name: "fig11", Help: "EDF^2 panels: drr, nat", Recovery: true, run: func(o Options, _ string, out *output) error { return edfPanels(o, out, "drr", "nat") }},
	{Name: "fig12", Help: "EDF^2 panels: url, average of all applications", Recovery: true, run: func(o Options, _ string, out *output) error { return edfPanels(o, out, "url", "average") }},
	{Name: "all", Help: "every paper figure and table in paper order, then the claims verdict", Recovery: true, run: runAll},
	{Name: "verify", Help: "check the paper's headline claims (fails if one does not hold)", Recovery: true, run: runVerify},
	{Name: "errors", Help: "per-plane error behaviour sweep for one app (fig6/fig7 without their titles)", NeedsApp: true, Recovery: true,
		run: func(o Options, app string, out *output) error { return errorSweep(o, app, out, "Service error sweep") }},
	{Name: "edf", Help: "EDF^2 recovery x operating-point grid for one app", NeedsApp: true, Recovery: true,
		run: func(o Options, app string, out *output) error { return edfTable(o, app, out, "Service EDF grid") }},
	{Name: "ecc", Help: "SEC-DED error correction vs parity vs no detection", App: "route", Recovery: true, run: runECC},
	{Name: "subblock", Help: "sub-block (per-word) recovery vs full-line invalidation", App: "route", Recovery: true, run: runSubBlock},
	{Name: "exponents", Help: "sensitivity of the winner to the EDF metric weights", App: "route", Recovery: true, run: runExponents},
	{Name: "dvs", Help: "conventional voltage scaling vs clumsy over-clocking", App: "route", Recovery: true, run: runDVS},
	{Name: "geometry", Help: "L1 data cache size ablation", App: "route", Recovery: true, run: runGeometry},
	{Name: "tuning", Help: "dynamic-controller threshold study (the paper's X1/X2 choice)", App: "route", Recovery: true, run: runTuning},
	{Name: "media", Help: "the claim beyond networking: EDF grid for an IMA ADPCM codec", Recovery: true, run: runMedia},
	{Name: "extensions", Help: "ecc, subblock, exponents, dvs, geometry, tuning and media in turn", App: "route", Recovery: true, run: runExtensions},
	{Name: "reliability", Help: "fault regime x recovery policy sweep, plus the degradation curve for one app", App: "route", run: runReliability},
	{Name: "fleet", Help: "fleet degradation study: faulty-node fraction sweep of an 8-node fleet", App: "route",
		run: func(o Options, app string, out *output) error { return table(o, app, out, Fleet, FleetRender) }},
	{Name: "state", Help: "state-integrity study for the stateful apps (fw, flowtrack)", run: runState},
}

// output is the one render path of every study: tables and figures as
// aligned text or CSV, separated by blank lines. It keeps the first write
// error, which Study.Run reports, and writes nothing after it.
type output struct {
	w   io.Writer
	csv bool
	err error
}

// renderer is a Table or a Figure.
type renderer interface {
	Render(io.Writer)
	RenderCSV(io.Writer) error
}

// emit renders r in the output's format.
func (out *output) emit(r renderer) {
	switch {
	case out.err != nil:
	case out.csv:
		out.err = r.RenderCSV(out.w)
	default:
		r.Render(out.w)
	}
}

// blank writes the blank line that separates renderings.
func (out *output) blank() {
	if out.err == nil {
		_, out.err = fmt.Fprintln(out.w)
	}
}

// spaced emits every rendering, each followed by a blank line.
func spaced[R renderer](out *output, rs ...R) {
	for _, r := range rs {
		out.emit(r)
		out.blank()
	}
}

func figure(out *output, f func() *Figure) error {
	out.emit(f())
	return nil
}

// table computes a per-app study and renders it as one table.
func table[T any](o Options, app string, out *output, compute func(string, Options) (T, error), render func(string, T, Options) *Table) error {
	v, err := compute(app, o)
	if err == nil {
		out.emit(render(app, v, o))
	}
	return err
}

// tableOf computes a study that reads no app and renders it as one table.
func tableOf[T any](o Options, out *output, compute func(Options) (T, error), render func(T, Options) *Table) error {
	v, err := compute(o)
	if err == nil {
		out.emit(render(v, o))
	}
	return err
}

func runTable1(o Options, _ string, out *output) error { return tableOf(o, out, Table1, Table1Render) }
func runFig8(o Options, _ string, out *output) error   { return tableOf(o, out, Fig8, Fig8Render) }

func runFig6(o Options, app string, out *output) error { return errorSweep(o, app, out, "Figure 6") }
func runFig7(o Options, app string, out *output) error { return errorSweep(o, app, out, "Figure 7") }

func errorSweep(o Options, app string, out *output, label string) error {
	sweeps, err := ErrorBehaviour(app, o)
	if err == nil {
		spaced(out, ErrorBehaviourRender(sweeps, label, o)...)
	}
	return err
}

// The extension studies, which extensions also runs in turn.
func runECC(o Options, app string, out *output) error {
	return table(o, app, out, ExtDetection, ExtDetectionRender)
}
func runSubBlock(o Options, app string, out *output) error {
	return table(o, app, out, ExtSubBlock, ExtSubBlockRender)
}
func runExponents(o Options, app string, out *output) error {
	return table(o, app, out, ExtExponents, ExtExponentsRender)
}
func runDVS(o Options, app string, out *output) error {
	return table(o, app, out, ExtDVS, ExtDVSRender)
}
func runGeometry(o Options, app string, out *output) error {
	return table(o, app, out, ExtGeometry, ExtGeometryRender)
}
func runTuning(o Options, app string, out *output) error {
	return table(o, app, out, ExtTuning, ExtTuningRender)
}

// edfPanelApps are the applications of the Figure 9–12 panels in order,
// two panels per figure.
var edfPanelApps = []string{"route", "crc", "md5", "tl", "drr", "nat", "url", "average"}

// edfPanelTitle names the panel of an app in edfPanelApps, e.g. "Figure 9(a)".
func edfPanelTitle(app string) string {
	i := slices.Index(edfPanelApps, app)
	return fmt.Sprintf("Figure %d(%c)", 9+i/2, 'a'+i%2)
}

// edfPanels renders the Figure 9–12 panels of the given apps. The
// "average" panel is the mean over every application's grid, so when it
// is asked for, every panel comes from one AllEDF pass.
func edfPanels(o Options, out *output, panelApps ...string) error {
	var all []*EDFResult
	if slices.Contains(panelApps, "average") {
		var err error
		if all, err = AllEDF(o); err != nil {
			return err
		}
	}
	for _, app := range panelApps {
		var r *EDFResult
		if i := slices.IndexFunc(all, func(r *EDFResult) bool { return r.App == app }); i >= 0 {
			r = all[i]
		} else {
			var err error
			if r, err = EDFGrid(app, o); err != nil {
				return err
			}
		}
		out.emit(EDFRender(r, edfPanelTitle(app), o))
		out.blank()
	}
	return nil
}

// edfTable renders an app's EDF grid under a fixed title.
func edfTable(o Options, app string, out *output, title string) error {
	r, err := EDFGrid(app, o)
	if err == nil {
		out.emit(EDFRender(r, title, o))
	}
	return err
}

// runAll renders the paper's evaluation in paper order. The Figure 9–12
// panels come from one AllEDF pass and render in its (Table I) order; the
// claims table closes the campaign as a verdict, not a gate.
func runAll(o Options, _ string, out *output) error {
	spaced(out, Fig1b(), Fig2b(), Fig3(), Fig4(), Fig5())
	if err := runTable1(o, "", out); err != nil {
		return err
	}
	out.blank()
	if err := runFig6(o, "route", out); err != nil {
		return err
	}
	if err := runFig7(o, "nat", out); err != nil {
		return err
	}
	if err := runFig8(o, "", out); err != nil {
		return err
	}
	out.blank()
	results, err := AllEDF(o)
	if err != nil {
		return err
	}
	for _, r := range results {
		out.emit(EDFRender(r, edfPanelTitle(r.App), o))
		out.blank()
	}
	return tableOf(o, out, VerifyClaims, VerifyRender)
}

func runVerify(o Options, _ string, out *output) error {
	claims, err := VerifyClaims(o)
	if err != nil {
		return err
	}
	out.emit(VerifyRender(claims, o))
	for _, c := range claims {
		if !c.Pass {
			return fmt.Errorf("claim %q failed", c.Name)
		}
	}
	return nil
}

// runMedia runs the EDF grid on the IMA ADPCM codec: the paper notes its
// ideas apply "to any type of processor that executes applications with
// fault resiliency (e.g., media processors)".
func runMedia(o Options, _ string, out *output) error {
	return edfTable(o, "adpcm", out, "Extension: media processor (adpcm)")
}

// runExtensions runs every extension study in turn on app; media keeps
// its codec.
func runExtensions(o Options, app string, out *output) error {
	for _, run := range []studyFunc{runECC, runSubBlock, runExponents, runDVS, runGeometry, runTuning, runMedia} {
		if err := run(o, app, out); err != nil {
			return err
		}
		out.blank()
	}
	return nil
}

// runReliability renders the regime x policy sweep over every application,
// then the degradation curve for app.
func runReliability(o Options, app string, out *output) error {
	cells, err := Reliability(o)
	if err != nil {
		return err
	}
	spaced(out, ReliabilityRender(cells, o)...)
	return table(o, app, out, ReliabilityCurve, ReliabilityCurveRender)
}

func runState(o Options, _ string, out *output) error {
	for i, app := range StateApps() {
		if i > 0 {
			out.blank()
		}
		if err := table(o, app, out, StateIntegrity, StateIntegrityRender); err != nil {
			return err
		}
	}
	return nil
}
