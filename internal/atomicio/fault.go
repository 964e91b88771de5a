package atomicio

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// Fault injection turns the package's crash-safety claims from assertions
// into tested behaviour. An Injector intercepts the primitive operations
// every atomic write is built from — temp-file writes, the fsync, the
// rename — and makes exactly one of them misbehave in a deterministic,
// seeded way: a short write that stops partway through the buffer, a
// failing fsync, ENOSPC mid-write, or a rename torn between the temp file
// and the target. In crash mode the injected fault does not return an
// error at all: the process exits on the spot (CrashExitCode), leaving
// the filesystem exactly as a SIGKILL at that instant would. The
// crashtest rigs (internal/atomicio tests, cmd/clumsyd, CI) drive a
// matrix of injection points and verify the invariant the package
// promises: the target path always holds the old bytes or the new bytes
// in full — never a mix, never a truncation.
//
// The hook is process-global and nil by default; the disabled path is one
// atomic pointer load per primitive operation.

// FaultMode selects which primitive operation misbehaves.
//
//lint:exhaustive
type FaultMode int

const (
	// FaultShortWrite makes the Nth temp-file write stop short (a strict
	// prefix of the buffer reaches the file) and fail with EIO.
	FaultShortWrite FaultMode = iota
	// FaultSyncErr makes the Nth temp-file fsync fail with EIO; the data
	// may or may not be durable, which is exactly the ambiguity a real
	// fsync failure leaves.
	FaultSyncErr
	// FaultENOSPC makes the Nth temp-file write stop short and fail with
	// ENOSPC (disk full).
	FaultENOSPC
	// FaultTornRename tears the Nth rename: in error mode the rename
	// fails with EIO leaving the temp file unlinked into place; in crash
	// mode the process dies either immediately before or immediately
	// after the rename (seed-chosen), the two instants a real crash can
	// split.
	FaultTornRename
)

// String names the mode the way ParseFault spells it.
func (m FaultMode) String() string {
	switch m {
	case FaultShortWrite:
		return "shortwrite"
	case FaultSyncErr:
		return "syncerr"
	case FaultENOSPC:
		return "enospc"
	case FaultTornRename:
		return "tornrename"
	}
	return fmt.Sprintf("faultmode(%d)", int(m))
}

// ParseFaultMode maps a mode name back to its value.
func ParseFaultMode(s string) (FaultMode, error) {
	switch s {
	case "shortwrite":
		return FaultShortWrite, nil
	case "syncerr":
		return FaultSyncErr, nil
	case "enospc":
		return FaultENOSPC, nil
	case "tornrename":
		return FaultTornRename, nil
	}
	return 0, fmt.Errorf("atomicio: unknown fault mode %q (want shortwrite, syncerr, enospc, or tornrename)", s)
}

// CrashExitCode is the exit status of a crash-mode injection, chosen to
// be distinguishable from ordinary failures (1) and signal deaths.
const CrashExitCode = 86

// FaultEnv is the environment variable cmd/clumsyd (and any other
// process that opts in) reads at startup to arm the injector.
const FaultEnv = "CLUMSY_IO_FAULT"

// Injector describes one injected fault. The Op'th operation of the
// mode's kind (1-based, counted process-wide) misbehaves; every other
// operation runs normally, so a matrix over Op values sweeps the fault
// across every write, fsync, and rename the process performs.
type Injector struct {
	Mode FaultMode
	Op   int64  // 1-based index of the faulted operation among its kind
	Seed uint64 // drives the short-write length and the torn-rename side
	// Crash exits the process (CrashExitCode) at the injection point
	// instead of returning an error — a deterministic stand-in for
	// SIGKILL landing mid-operation.
	Crash bool

	count atomic.Int64
}

// ParseFault parses the "mode:op:seed[:crash]" spec used by FaultEnv,
// e.g. "tornrename:2:7:crash".
func ParseFault(spec string) (*Injector, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return nil, fmt.Errorf("atomicio: fault spec %q: want mode:op:seed[:crash]", spec)
	}
	mode, err := ParseFaultMode(parts[0])
	if err != nil {
		return nil, err
	}
	op, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || op < 1 {
		return nil, fmt.Errorf("atomicio: fault spec %q: op must be a positive integer", spec)
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("atomicio: fault spec %q: bad seed", spec)
	}
	inj := &Injector{Mode: mode, Op: op, Seed: seed}
	if len(parts) == 4 {
		if parts[3] != "crash" {
			return nil, fmt.Errorf("atomicio: fault spec %q: trailing field must be \"crash\"", spec)
		}
		inj.Crash = true
	}
	return inj, nil
}

// active is the process-wide injector; nil (the default) disables
// injection entirely.
var active atomic.Pointer[Injector]

// SetInjector installs inj as the process-wide fault injector. Pass nil
// to disable. Intended for tests and for ArmFaultFromEnv.
func SetInjector(inj *Injector) { active.Store(inj) }

// ArmFaultFromEnv arms the injector from the FaultEnv environment
// variable if it is set, reporting whether injection is now active.
func ArmFaultFromEnv() (bool, error) {
	spec := os.Getenv(FaultEnv)
	if spec == "" {
		return false, nil
	}
	inj, err := ParseFault(spec)
	if err != nil {
		return false, err
	}
	SetInjector(inj)
	return true, nil
}

// opKind classifies the primitive operations the injector can intercept.
type opKind int

const (
	opWrite opKind = iota
	opSync
	opRename
)

// kind maps a fault mode onto the operation kind it counts.
func (m FaultMode) kind() opKind {
	switch m {
	case FaultShortWrite, FaultENOSPC:
		return opWrite
	case FaultSyncErr:
		return opSync
	case FaultTornRename:
		return opRename
	}
	return opWrite
}

// splitmix64 is the seed scrambler used for the injected choices; small
// enough to inline here rather than importing the simulator's RNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trip reports whether the injector fires on this operation: the op
// kind matches the mode and the per-kind counter has reached Op.
func (inj *Injector) trip(k opKind) bool {
	if inj == nil || inj.Mode.kind() != k {
		return false
	}
	return inj.count.Add(1) == inj.Op
}

// crashNow simulates a kill at the injection point.
func (inj *Injector) crashNow(where string) {
	fmt.Fprintf(os.Stderr, "atomicio: injected crash (%s at %s, op %d, seed %d)\n",
		inj.Mode, where, inj.Op, inj.Seed)
	os.Exit(CrashExitCode)
}

// faultyWrite intercepts one temp-file write. It returns the bytes
// written and an error exactly like (*os.File).Write, with the injected
// short write leaving a strict prefix of p in the file.
func faultyWrite(f *os.File, p []byte) (int, error) {
	inj := active.Load()
	if !inj.trip(opWrite) {
		return f.Write(p)
	}
	// A strict prefix: at least 0, at most len(p)-1 bytes land.
	k := 0
	if len(p) > 1 {
		k = int(splitmix64(inj.Seed^uint64(inj.Op)) % uint64(len(p)))
	}
	n, _ := f.Write(p[:k]) // the injected error below supersedes any real one
	if inj.Crash {
		inj.crashNow("write")
	}
	errno := syscall.EIO
	if inj.Mode == FaultENOSPC {
		errno = syscall.ENOSPC
	}
	return n, fmt.Errorf("atomicio: injected %s after %d/%d bytes: %w", inj.Mode, n, len(p), errno)
}

// faultySync intercepts one temp-file fsync.
func faultySync(f *os.File) error {
	inj := active.Load()
	if !inj.trip(opSync) {
		return f.Sync()
	}
	if inj.Crash {
		inj.crashNow("fsync")
	}
	return fmt.Errorf("atomicio: injected fsync failure: %w", syscall.EIO)
}

// faultyRename intercepts one rename. The torn-rename crash lands on a
// seed-chosen side of the rename: before it (temp complete, target old)
// or after it (target new, directory entry not yet synced).
func faultyRename(oldpath, newpath string) error {
	inj := active.Load()
	if !inj.trip(opRename) {
		return os.Rename(oldpath, newpath)
	}
	if inj.Crash {
		if splitmix64(inj.Seed^0xdead)&1 == 0 {
			inj.crashNow("pre-rename")
		}
		if err := os.Rename(oldpath, newpath); err == nil {
			inj.crashNow("post-rename")
		}
		inj.crashNow("pre-rename")
	}
	return fmt.Errorf("atomicio: injected torn rename of %s: %w", newpath, syscall.EIO)
}
