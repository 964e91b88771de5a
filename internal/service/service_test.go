package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clumsy/internal/experiment"
	"clumsy/internal/telemetry"
)

// newService builds a service on a temp dir, closed at cleanup. Callers
// may tweak cfg through mod.
func newService(t *testing.T, mod func(*Config)) *Service {
	t.Helper()
	cfg := Config{DataDir: t.TempDir()}
	if mod != nil {
		mod(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// stubbed is the study the tests that use stubStudies submit. The stub
// replaces what every campaign runs, so any registry name would do.
const stubbed = "fig5"

// stubStudies makes every campaign run fn instead of its registry study,
// through the real supervisor, for the duration of the test. Tests in this
// package must not run in parallel while a stub is installed (none do).
func stubStudies(t *testing.T, fn func(o experiment.Options, sp Spec, w io.Writer) error) {
	t.Helper()
	prev := runStudy
	runStudy = fn
	t.Cleanup(func() { runStudy = prev })
}

// waitDone blocks until the campaign's supervisor finishes.
func waitDone(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("campaign %s did not finish", c.ID)
	}
}

// smallSpec is a fast real campaign used where genuine study output
// matters.
func smallSpec() Spec {
	return Spec{Study: "table1", Packets: 120, Trials: 1}
}

// renderDirect runs a spec's study without the service, the way the CLI
// would, for byte-identity comparisons.
func renderDirect(t *testing.T, sp Spec) []byte {
	t.Helper()
	st, _ := experiment.LookupStudy(sp.Study)
	var buf bytes.Buffer
	if err := st.Run(sp.options(), sp.App, sp.Format, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSubmitRunsToCompletionByteIdentical(t *testing.T) {
	svc := newService(t, nil)
	st, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := svc.Get(st.ID)
	if !ok {
		t.Fatalf("submitted campaign %s not listed", st.ID)
	}
	waitDone(t, c)
	if got := c.currentState(); got != StateCompleted {
		t.Fatalf("state = %s, want completed (err %q)", got, c.status().Error)
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := renderDirect(t, smallSpec()); !bytes.Equal(res, want) {
		t.Fatalf("service result differs from direct run:\n--- service ---\n%s--- direct ---\n%s", res, want)
	}
	if st := c.status(); st.CellsDone == 0 {
		t.Fatal("completed campaign reports zero journaled cells")
	}
}

func TestSubmitValidates(t *testing.T) {
	svc := newService(t, nil)
	for _, sp := range []Spec{
		{Study: "bogus"},
		{Study: "edf"}, // needs an app
		{Study: "table1", Format: "xml"},
		{Study: "table1", Packets: -1},
		{Study: "errors", App: "bogus"},
		{Study: "table1", Recovery: "bogus"},
		{Study: "fig5", Packets: 120},       // the circuit model takes no scale
		{Study: "table1", MaxDropRate: 0.1}, // under abort nothing drops
		{Study: "fig6", Recovery: "abort", Seed: 1, MaxDropRate: 0.1},
	} {
		if _, err := svc.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) accepted a bad spec", sp)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Fatalf("bad specs left %d campaigns behind", n)
	}
}

// TestQueueBackpressure fills the single slot and the queue, then checks
// the next submission is rejected with ErrQueueFull and counted.
func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 4)
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		started <- struct{}{}
		<-o.Ctx.Done()
		return o.Ctx.Err()
	})
	svc := newService(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 2
	})
	if _, err := svc.Submit(Spec{Study: stubbed}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first campaign never started")
	}
	// Slot busy: these two sit in the queue.
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(Spec{Study: stubbed}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Submit(Spec{Study: stubbed}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue returned %v, want ErrQueueFull", err)
	}
	if got := svc.tel.Registry.Counter(telemetry.CtrServiceQueueRejections).Load(); got != 1 {
		t.Fatalf("queue_rejections = %d, want 1", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan struct{}, 2)
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		started <- struct{}{}
		<-o.Ctx.Done()
		return o.Ctx.Err()
	})
	svc := newService(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 4
	})
	run, err := svc.Submit(Spec{Study: stubbed})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(Spec{Study: stubbed})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued one: terminal immediately, never runs.
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	qc, _ := svc.Get(queued.ID)
	waitDone(t, qc)
	if got := qc.currentState(); got != StateCancelled {
		t.Fatalf("queued cancel: state %s, want cancelled", got)
	}
	// Its terminal record must be on disk (crash-safe cancel).
	if _, err := os.Stat(filepath.Join(qc.dir, stateFile)); err != nil {
		t.Fatalf("cancelled campaign has no terminal record: %v", err)
	}

	// Cancel the running one: the supervisor observes the cancelled
	// context and records the terminal state.
	if err := svc.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	rc, _ := svc.Get(run.ID)
	waitDone(t, rc)
	if got := rc.currentState(); got != StateCancelled {
		t.Fatalf("running cancel: state %s, want cancelled", got)
	}
	if err := svc.Cancel(run.ID); err != nil {
		t.Fatalf("cancelling a terminal campaign should be a no-op, got %v", err)
	}
	if err := svc.Cancel("c999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id: %v, want ErrNotFound", err)
	}
}

// TestRestartWithResume fails the first attempt after the journal is
// fully populated; the supervised restart must resume from the journal
// and complete with the exact output of an undisturbed run.
func TestRestartWithResume(t *testing.T) {
	var calls atomic.Int32
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		rows, err := experiment.Table1(o)
		if err != nil {
			return err
		}
		if calls.Add(1) == 1 {
			return errors.New("injected first-attempt failure")
		}
		experiment.Table1Render(rows, o).Render(w)
		return nil
	})
	svc := newService(t, func(c *Config) { c.MaxRestarts = 1 })
	st, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := svc.Get(st.ID)
	waitDone(t, c)
	final := c.status()
	if final.State != "completed" {
		t.Fatalf("state = %s (%s), want completed", final.State, final.Error)
	}
	if final.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", final.Restarts)
	}
	if final.CellsDone == 0 {
		t.Fatal("resumed attempt should report journaled cells")
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := renderDirect(t, smallSpec()); !bytes.Equal(res, want) {
		t.Fatalf("restarted result differs from undisturbed run:\n%s", res)
	}
	if got := svc.tel.Registry.Counter(telemetry.CtrServiceCampaignsRestarted).Load(); got != 1 {
		t.Fatalf("campaigns_restarted = %d, want 1", got)
	}
}

// TestRestartBudgetExhaustion: a study that always fails must end up
// failed after MaxRestarts+1 attempts; zero restarts means one attempt.
func TestRestartBudgetExhaustion(t *testing.T) {
	var calls atomic.Int32
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		calls.Add(1)
		return errors.New("persistent failure")
	})
	for _, restarts := range []int{2, 0} {
		calls.Store(0)
		svc := newService(t, func(c *Config) { c.MaxRestarts = restarts })
		st, err := svc.Submit(Spec{Study: stubbed})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := svc.Get(st.ID)
		waitDone(t, c)
		if got := c.currentState(); got != StateFailed {
			t.Fatalf("MaxRestarts %d: state = %s, want failed", restarts, got)
		}
		if got, want := int(calls.Load()), 1+restarts; got != want {
			t.Fatalf("MaxRestarts %d: attempts = %d, want %d", restarts, got, want)
		}
		if got := c.status().Restarts; got != restarts {
			t.Fatalf("MaxRestarts %d: restarts = %d", restarts, got)
		}
		if got := svc.tel.Registry.Counter(telemetry.CtrServiceCampaignsFailed).Load(); got != 1 {
			t.Fatalf("MaxRestarts %d: campaigns_failed = %d, want 1", restarts, got)
		}
	}
}

// TestPanicContained: a panicking study must fail its campaign, not the
// daemon.
func TestPanicContained(t *testing.T) {
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		panic("study exploded")
	})
	svc := newService(t, func(c *Config) { c.MaxRestarts = 1 })
	st, err := svc.Submit(Spec{Study: stubbed})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := svc.Get(st.ID)
	waitDone(t, c)
	if got := c.currentState(); got != StateFailed {
		t.Fatalf("state = %s, want failed", got)
	}
	if msg := c.status().Error; !strings.Contains(msg, "panic") {
		t.Fatalf("error %q does not mention the panic", msg)
	}
}

// TestDrainCheckpointAndAdoption is the graceful-drain contract: an
// in-flight campaign that cannot finish inside the grace period is
// checkpointed (journal kept, no terminal record) and a fresh service on
// the same data dir adopts and completes it.
func TestDrainCheckpointAndAdoption(t *testing.T) {
	dataDir := t.TempDir()
	started := make(chan struct{}, 1)
	var calls atomic.Int32
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-o.Ctx.Done()
			return o.Ctx.Err()
		}
		fmt.Fprintln(w, "completed after adoption")
		return nil
	})
	svc, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(Spec{Study: stubbed})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	expired, cancel := context.WithCancel(context.Background())
	cancel() // zero grace: checkpoint immediately
	svc.Drain(expired)
	if _, err := svc.Submit(Spec{Study: stubbed}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	c, _ := svc.Get(st.ID)
	if got := c.currentState(); got != StateQueued {
		t.Fatalf("checkpointed campaign has state %s, want queued", got)
	}
	if _, err := os.Stat(filepath.Join(c.dir, stateFile)); !os.IsNotExist(err) {
		t.Fatalf("checkpointed campaign must not have a terminal record (stat err %v)", err)
	}

	svc2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", svc2.Recovered)
	}
	c2, ok := svc2.Get(st.ID)
	if !ok {
		t.Fatalf("adopted campaign %s not listed", st.ID)
	}
	waitDone(t, c2)
	if got := c2.currentState(); got != StateCompleted {
		t.Fatalf("adopted campaign state = %s, want completed", got)
	}
	if !c2.status().Adopted {
		t.Fatal("adopted campaign should report adopted=true")
	}
	res, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "completed after adoption\n" {
		t.Fatalf("adopted result = %q", res)
	}
	if got := svc2.tel.Registry.Counter(telemetry.CtrServiceRecoveriesOnStart).Load(); got != 1 {
		t.Fatalf("recoveries_on_start = %d, want 1", got)
	}
}

// TestRecoveryByteIdentity is the crash-recovery acceptance check in
// process form: a campaign interrupted by Close (the SIGKILL stand-in —
// no checkpointing courtesy beyond the per-cell journal) must, after
// adoption by a fresh service, publish a byte-identical result to an
// uninterrupted run — with the journal actually carrying cells across.
func TestRecoveryByteIdentity(t *testing.T) {
	dataDir := t.TempDir()
	svc, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := svc.Get(st.ID)
	// Let some cells land in the journal, then kill the service hard.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if c.status().CellsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cells journaled before interruption")
		}
		time.Sleep(time.Millisecond)
	}
	svc.Close()

	if st2, _ := svc.Get(st.ID); st2.currentState() == StateCompleted {
		t.Skip("campaign finished before the interruption; nothing to recover")
	}
	svc2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", svc2.Recovered)
	}
	c2, _ := svc2.Get(st.ID)
	waitDone(t, c2)
	if got := c2.currentState(); got != StateCompleted {
		t.Fatalf("recovered state = %s (%s)", got, c2.status().Error)
	}
	res, err := c2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := renderDirect(t, smallSpec()); !bytes.Equal(res, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n%s", res)
	}
}

// TestLoadCampaignsSkipsGhostDirs: a directory without spec.json (a
// submission killed before its first atomic write) is not a campaign.
func TestLoadCampaignsSkipsGhostDirs(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(campaignsDir(dataDir), "c000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Recovered != 0 || len(svc.List()) != 0 {
		t.Fatalf("ghost dir adopted: recovered %d, %d campaigns", svc.Recovered, len(svc.List()))
	}
	// The ghost still burns its ID so a new submission never collides.
	st, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "c000008" {
		t.Fatalf("next ID = %s, want c000008", st.ID)
	}
}

// TestAdoptionRejectsInvalidSpec: an incomplete campaign whose spec.json
// no longer validates is recorded failed at startup, without a restart, a
// journal or an adoption count, while the valid campaign beside it is
// adopted and finishes.
func TestAdoptionRejectsInvalidSpec(t *testing.T) {
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		_, err := fmt.Fprintln(w, "ran", sp.Study)
		return err
	})
	dataDir := t.TempDir()
	for id, spec := range map[string]string{"c000001": `{"study":"bogus"}`, "c000002": `{"study":"` + stubbed + `"}`} {
		dir := filepath.Join(campaignsDir(dataDir), id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, specFile), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", svc.Recovered)
	}
	if got := svc.tel.Registry.Counter(telemetry.CtrServiceRecoveriesOnStart).Load(); got != 1 {
		t.Fatalf("recoveries_on_start = %d, want 1", got)
	}
	bad, _ := svc.Get("c000001")
	waitDone(t, bad)
	st := bad.status()
	if st.State != "failed" || st.Restarts != 0 || st.Adopted || !strings.Contains(st.Error, `unknown study "bogus"`) {
		t.Fatalf("invalid campaign status = %+v, want failed with the validation error and no restarts", st)
	}
	if _, err := os.Stat(bad.journalPath()); !os.IsNotExist(err) {
		t.Fatalf("invalid campaign opened a journal (stat err %v)", err)
	}
	raw, err := os.ReadFile(filepath.Join(bad.dir, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec stateRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "failed" || rec.Error != st.Error || rec.Restarts != 0 {
		t.Fatalf("state.json = %+v, want failed with %q", rec, st.Error)
	}
	good, _ := svc.Get("c000002")
	waitDone(t, good)
	if got := good.currentState(); got != StateCompleted {
		t.Fatalf("valid campaign state = %s (%s), want completed", got, good.status().Error)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	svc := newService(t, nil)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	// Submit a real campaign over the wire.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"study":"table1","packets":120,"trials":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	c, ok := svc.Get(st.ID)
	if !ok {
		t.Fatalf("campaign %s not registered", st.ID)
	}
	waitDone(t, c)

	if resp, body := get("/campaigns"); resp.StatusCode != 200 || !strings.Contains(body, st.ID) {
		t.Fatalf("list: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/campaigns/" + st.ID); resp.StatusCode != 200 || !strings.Contains(body, `"completed"`) {
		t.Fatalf("status: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/campaigns/" + st.ID + "/result"); resp.StatusCode != 200 || !strings.Contains(body, "Table I") {
		t.Fatalf("result: %d %.120q", resp.StatusCode, body)
	}
	if resp, _ := get("/campaigns/c999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign: %d", resp.StatusCode)
	}
	if resp, body := get("/metrics"); resp.StatusCode != 200 ||
		!strings.Contains(body, "clumsy_service_campaigns_completed 1") {
		t.Fatalf("metrics: %d\n%s", resp.StatusCode, body)
	}

	// Malformed and unknown-field specs are rejected up front.
	for _, bad := range []string{`{"study":`, `{"study":"table1","bogus":1}`} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %q: %d", bad, resp.StatusCode)
		}
	}
}

// TestHTTPBackpressureAndDrain covers the two refusal paths: 429 with
// Retry-After on a full queue, 503 from submit and readyz once draining.
func TestHTTPBackpressureAndDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	stubStudies(t, func(o experiment.Options, sp Spec, w io.Writer) error {
		started <- struct{}{}
		<-o.Ctx.Done()
		return o.Ctx.Err()
	})
	svc := newService(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 1
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"study":"`+stubbed+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //lint:errcheck-ok — drain for keep-alive
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Drain(expired)
	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body) //lint:errcheck-ok — drain for keep-alive
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rresp.StatusCode)
	}
}

// TestEveryStudyValidates: every registry entry has a unique name and a
// help line, and the service accepts a spec for it under the same app and
// recovery rules as the CLI's flags.
func TestEveryStudyValidates(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range experiment.Studies() {
		if seen[st.Name] {
			t.Errorf("study %q registered twice", st.Name)
		}
		seen[st.Name] = true
		if st.Help == "" {
			t.Errorf("study %q has no help text", st.Name)
		}
		sp := Spec{Study: st.Name}
		if st.NeedsApp {
			if err := sp.Validate(); err == nil {
				t.Errorf("%s: accepted a spec without the app it needs", st.Name)
			}
			sp.App = "nat"
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", st.Name, err)
		}
		withApp := Spec{Study: st.Name, App: "crc"}
		if err := withApp.Validate(); (err == nil) != st.ReadsApp() {
			t.Errorf("%s: app accepted = %v, study reads an app = %v", st.Name, err == nil, st.ReadsApp())
		}
		withRecovery := Spec{Study: st.Name, App: sp.App, Recovery: "drop"}
		if err := withRecovery.Validate(); (err == nil) != st.Recovery {
			t.Errorf("%s: recovery accepted = %v, study takes one = %v", st.Name, err == nil, st.Recovery)
		}
	}
	if len(seen) != 28 {
		t.Errorf("registry holds %d studies, want the 28 the CLI and the service accept", len(seen))
	}
}
