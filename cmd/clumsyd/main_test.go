package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clumsy/internal/atomicio"
	"clumsy/internal/service"
)

// The exec suite drives the real clumsyd binary: kill-and-recover
// byte-identity, graceful drain, the second-signal force quit, and the
// crashtest matrix that kills the daemon at injected I/O fault points
// and proves every journal is absent or replayable — never corrupt.

var (
	buildOnce sync.Once
	buildErr  error
	binPath   string
)

// clumsydBin builds the daemon once per test binary.
func clumsydBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "clumsyd-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "clumsyd")
		out, err := exec.Command("go", "build", "-o", binPath, "clumsy/cmd/clumsyd").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building clumsyd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// daemon is one running clumsyd under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	errs *bytes.Buffer // captured stderr
}

// startDaemon launches clumsyd on an ephemeral port and waits for its
// "serving on" line. extraEnv entries are appended to the environment.
func startDaemon(t *testing.T, dataDir string, extraEnv ...string) *daemon {
	t.Helper()
	cmd := exec.Command(clumsydBin(t), "-addr", "127.0.0.1:0", "-data", dataDir)
	cmd.Env = append(os.Environ(), extraEnv...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, errs: &bytes.Buffer{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.errs.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill() //lint:errcheck-ok — best-effort teardown of a wedged daemon
		t.Fatalf("daemon never announced its address; stderr:\n%s", d.errs)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //lint:errcheck-ok — test teardown
			cmd.Wait()         //lint:errcheck-ok — test teardown
		}
	})
	return d
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// wait blocks for process exit and returns its exit code (-1 when
// signal-killed).
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("daemon wait: %v", err)
	}
	return ee.ExitCode()
}

// submit posts a campaign spec and decodes the acknowledgement.
func submit(t *testing.T, d *daemon, spec string) (service.Status, error) {
	t.Helper()
	resp, err := http.Post(d.url("/campaigns"), "application/json", strings.NewReader(spec))
	if err != nil {
		return service.Status{}, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return service.Status{}, fmt.Errorf("submit: %d %s", resp.StatusCode, body)
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return service.Status{}, err
	}
	return st, nil
}

// getStatus fetches one campaign's status.
func getStatus(t *testing.T, d *daemon, id string) (service.Status, error) {
	t.Helper()
	resp, err := http.Get(d.url("/campaigns/" + id))
	if err != nil {
		return service.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Status{}, fmt.Errorf("status: %d", resp.StatusCode)
	}
	var st service.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// awaitState polls until the campaign reaches the wanted state, failing
// on failed/cancelled detours when a completion is expected.
func awaitState(t *testing.T, d *daemon, id, want string) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := getStatus(t, d, id)
		if err == nil {
			if st.State == want {
				return st
			}
			if want == "completed" && (st.State == "failed" || st.State == "cancelled") {
				t.Fatalf("campaign %s reached %s (%s) while waiting for %s", id, st.State, st.Error, want)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s; daemon stderr:\n%s", id, want, d.errs)
	return service.Status{}
}

// fetchResult downloads a completed campaign's published result.
func fetchResult(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url("/campaigns/" + id + "/result"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, b)
	}
	return b
}

const smallCampaign = `{"study":"table1","packets":120,"trials":1}`

// referenceResult computes the uninterrupted result for smallCampaign
// in-process (no fault injector armed here), once.
var refOnce sync.Once
var refBytes []byte

func referenceResult(t *testing.T) []byte {
	t.Helper()
	refOnce.Do(func() {
		svc, err := service.New(service.Config{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		st, err := svc.Submit(service.Spec{Study: "table1", Packets: 120, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := svc.Get(st.ID)
		<-c.Done()
		refBytes, err = c.Result()
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(refBytes) == 0 {
		t.Fatal("reference result unavailable")
	}
	return refBytes
}

// checkJournalIntegrity asserts the crashtest invariant for every file
// under the data dir: journals and JSON records are absent or fully
// parseable — never a torn line or truncated document.
func checkJournalIntegrity(t *testing.T, dataDir string) {
	t.Helper()
	err := filepath.WalkDir(dataDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".jsonl":
			for i, line := range bytes.Split(raw, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				if !json.Valid(line) {
					t.Errorf("%s line %d is corrupt: %q", path, i+1, line)
				}
			}
		case ".json":
			if !json.Valid(raw) {
				t.Errorf("%s is corrupt: %q", path, raw)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// No stray atomicio temp files may survive a crash point either.
	matches, err := filepath.Glob(filepath.Join(dataDir, "campaigns", "*", ".atomic-*"))
	if err == nil && len(matches) > 0 {
		// Stray temps are tolerated (a crash between create and rename
		// leaves one) but must never shadow the real file; report them
		// for visibility only.
		t.Logf("stray temp files after crash: %v", matches)
	}
}

// TestRejectsNegativeFlags: a negative count or duration exits 2 with a
// message naming the flag, before the data dir is created.
func TestRejectsNegativeFlags(t *testing.T) {
	for _, arg := range []string{
		"-max-concurrent=-1", "-queue-depth=-1", "-attempt-timeout=-1s",
		"-cell-timeout=-1s", "-max-restarts=-1", "-drain-grace=-1s",
	} {
		dataDir := filepath.Join(t.TempDir(), "data")
		// A daemon that accepts the flag serves until killed; the deadline
		// turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, clumsydBin(t), "-addr", "127.0.0.1:0", "-data", dataDir, arg).CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2; output:\n%s", arg, err, out)
		}
		if name, _, _ := strings.Cut(arg, "="); !strings.Contains(string(out), name+" must not be negative") {
			t.Errorf("%s: output does not name the flag:\n%s", arg, out)
		}
		if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
			t.Errorf("%s: the data dir was created (stat err %v)", arg, err)
		}
	}
}

// TestKillAndRecoverByteIdentical is the acceptance test of the
// tentpole: SIGKILL the daemon mid-campaign, restart it on the same data
// dir, and require the recovered campaign's published result to be
// byte-identical to an uninterrupted run.
func TestKillAndRecoverByteIdentical(t *testing.T) {
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir)
	st, err := submit(t, d, smallCampaign)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one cell land in the journal before the kill so the
	// recovery genuinely resumes (rather than restarts from nothing).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := getStatus(t, d, st.ID)
		if err == nil && (cur.CellsDone > 0 || cur.State == "completed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no journal progress before the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.wait(t)
	checkJournalIntegrity(t, dataDir)

	d2 := startDaemon(t, dataDir)
	fin := awaitState(t, d2, st.ID, "completed")
	res := fetchResult(t, d2, st.ID)
	if want := referenceResult(t); !bytes.Equal(res, want) {
		t.Fatalf("recovered result differs from uninterrupted run (adopted=%v):\n%s", fin.Adopted, res)
	}

	// Graceful drain: SIGTERM must exit 0 with nothing left running.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d2.wait(t); code != 0 {
		t.Fatalf("drained daemon exited %d, want 0; stderr:\n%s", code, d2.errs)
	}
}

// TestSecondSignalForceQuits: during a slow drain a second signal must
// force-quit with exit 130 and still leave only replayable state behind.
func TestSecondSignalForceQuits(t *testing.T) {
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir)
	// A heavyweight campaign keeps the drain busy long enough to land the
	// second signal.
	st, err := submit(t, d, `{"study":"table1","packets":60000,"trials":2}`)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, d, st.ID, "running")
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the drain start
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 130 {
		t.Fatalf("force quit exited %d, want 130; stderr:\n%s", code, d.errs)
	}
	checkJournalIntegrity(t, dataDir)
}

// TestCrashMatrix is the crashtest rig: arm a deterministic I/O fault in
// crash mode, run a campaign until the daemon kills itself mid-write
// (exit 86), assert on-disk state is absent-or-replayable, then restart
// clean and require the campaign to finish byte-identical to the
// uninterrupted reference. Swept over every fault mode, two operation
// indices, and three seeds.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow; skipped with -short")
	}
	want := referenceResult(t)
	for _, mode := range []string{"shortwrite", "syncerr", "enospc", "tornrename"} {
		for _, op := range []int{1, 4} {
			for seed := 1; seed <= 3; seed++ {
				spec := fmt.Sprintf("%s:%d:%d:crash", mode, op, seed)
				t.Run(spec, func(t *testing.T) {
					dataDir := t.TempDir()
					d := startDaemon(t, dataDir, atomicio.FaultEnv+"="+spec)
					id := ""
					if st, err := submit(t, d, smallCampaign); err == nil {
						id = st.ID
					}
					// The daemon must die at the injected point, not finish.
					if code := d.wait(t); code != atomicio.CrashExitCode {
						t.Fatalf("daemon exited %d, want %d; stderr:\n%s", code, atomicio.CrashExitCode, d.errs)
					}
					checkJournalIntegrity(t, dataDir)

					// Clean restart: whatever survived must recover to the
					// exact uninterrupted result.
					d2 := startDaemon(t, dataDir)
					if id == "" {
						// The crash beat the submission acknowledgement; any
						// adopted campaign still finishes, else resubmit.
						sts := listCampaigns(t, d2)
						if len(sts) > 0 {
							id = sts[0].ID
						} else {
							st, err := submit(t, d2, smallCampaign)
							if err != nil {
								t.Fatal(err)
							}
							id = st.ID
						}
					}
					awaitState(t, d2, id, "completed")
					if res := fetchResult(t, d2, id); !bytes.Equal(res, want) {
						t.Fatalf("post-crash result differs from uninterrupted run:\n%s", res)
					}
					if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					if code := d2.wait(t); code != 0 {
						t.Fatalf("drain exited %d; stderr:\n%s", code, d2.errs)
					}
				})
			}
		}
	}
}

// listCampaigns fetches the full campaign list.
func listCampaigns(t *testing.T, d *daemon) []service.Status {
	t.Helper()
	resp, err := http.Get(d.url("/campaigns"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sts []service.Status
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	return sts
}
