package cache

import (
	"errors"
	"testing"

	"clumsy/internal/fault"
	"clumsy/internal/simmem"
)

// failingBackend errors after a countdown, to exercise the L1D's
// error-propagation paths (fill, write-back, recovery refetch).
type failingBackend struct {
	inner     Backend
	countdown int
}

var errBackend = errors.New("backend failure injected")

func (f *failingBackend) tick() error {
	f.countdown--
	if f.countdown == 0 {
		return errBackend
	}
	return nil
}

func (f *failingBackend) FetchLine(a simmem.Addr, buf []byte) (float64, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.inner.FetchLine(a, buf)
}

func (f *failingBackend) StoreLine(a simmem.Addr, buf []byte) (float64, error) {
	if err := f.tick(); err != nil {
		return 0, err
	}
	return f.inner.StoreLine(a, buf)
}

func TestL1DPropagatesBackendFailures(t *testing.T) {
	// Drive a workload that exercises fills, dirty write-backs, and parity
	// recoveries, failing each successive backend operation in turn. Every
	// injected failure must surface as an error — never a panic, never
	// silent success.
	for n := 1; n <= 40; n++ {
		space := simmem.NewSpace(1 << 20)
		mem := NewMainMemory(space)
		fb := &failingBackend{inner: mem, countdown: n}
		inj := fault.NewInjector(fault.NewModel(1), fault.NewRNG(1), 32)
		inj.SetEnabled(false)
		l1, err := NewL1Data(DefaultL1D, fb, mem, inj, DetectionParity, 1)
		if err != nil {
			t.Fatal(err)
		}
		base := space.MustAlloc(32*1024, 4096)

		failed := false
		// Write two conflicting lines (fill + dirty eviction + fill), then
		// corrupt a word to force a recovery refetch.
		ops := []func() error{
			func() error { return l1.Store32(base, 1) },
			func() error { return l1.Store32(base+8192, 2) },
			func() error { _, err := l1.Load32(base); return err },
			func() error {
				l1.tab.corrupt(base, 1)
				_, err := l1.Load32(base)
				return err
			},
		}
		for _, op := range ops {
			if err := op(); err != nil {
				if !errors.Is(err, errBackend) {
					t.Fatalf("n=%d: unexpected error %v", n, err)
				}
				failed = true
				break
			}
		}
		if !failed && fb.countdown <= 0 {
			t.Fatalf("n=%d: backend failure was swallowed", n)
		}
	}
}

func TestL1InstrPropagatesBackendFailure(t *testing.T) {
	space := simmem.NewSpace(1 << 20)
	fb := &failingBackend{inner: NewMainMemory(space), countdown: 1}
	l1i := &L1Instr{next: fb}
	code := space.MustAlloc(4096, 128)
	if err := l1i.Fetch(code, 3); !errors.Is(err, errBackend) {
		t.Fatalf("err = %v, want injected backend failure", err)
	}
	// The failed fill left the line absent: the next fetch misses again.
	if err := l1i.Fetch(code, 1); err != nil || l1i.Stats.ReadMisses != 2 {
		t.Fatalf("refetch: err %v, %d misses, want nil and 2", err, l1i.Stats.ReadMisses)
	}
}
