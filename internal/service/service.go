package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clumsy/internal/atomicio"
	"clumsy/internal/experiment"
	"clumsy/internal/telemetry"
)

// restartBackoff is the delay before the first supervised restart of a
// campaign, doubled per consecutive restart.
const restartBackoff = 100 * time.Millisecond

// Config sizes the service. Zero values take the documented defaults,
// except MaxRestarts, which is taken as given.
type Config struct {
	// DataDir is the durable home of every campaign (specs, journals,
	// results, terminal records).
	DataDir string
	// MaxConcurrent is the number of supervisor slots: campaigns running
	// at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds the submissions waiting for a slot; a full queue
	// rejects with ErrQueueFull — HTTP 429 + Retry-After (default 8).
	QueueDepth int
	// AttemptTimeout is the per-attempt watchdog deadline: one supervised
	// execution of the whole campaign. An expired attempt is treated as a
	// failure and consumes a restart (0 = none).
	AttemptTimeout time.Duration
	// CellTimeout is forwarded to the campaign layer's per-grid-cell
	// wall-clock watchdog (experiment.Options.RunTimeout; 0 = none).
	CellTimeout time.Duration
	// MaxRestarts bounds supervised restart-with-resume after a campaign
	// failure; the journal carries completed cells across restarts, so
	// every restart makes forward progress. Zero fails a campaign on its
	// first failed attempt.
	MaxRestarts int
	// Telemetry receives the service.* counters and hosts the registry
	// the /metrics endpoint serves (nil = a private hub).
	Telemetry *telemetry.Telemetry
	// Log receives one-line operational messages (nil = discard).
	Log io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return cfg
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrDraining rejects a submission because the service is shutting
	// down (HTTP 503).
	ErrDraining = errors.New("service: draining, not admitting campaigns")
	// ErrNotFound reports an unknown campaign ID (HTTP 404).
	ErrNotFound = errors.New("service: no such campaign")
)

// Service schedules journaled campaigns: a bounded submission queue
// feeding MaxConcurrent supervisor goroutines, with crash recovery at
// construction and graceful drain at shutdown.
type Service struct {
	cfg Config
	tel *telemetry.Telemetry

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	queue     []*Campaign
	draining  bool
	nextID    int

	notify    chan struct{}
	drainCh   chan struct{} // closed when the drain begins: wakes every idle worker
	drainOnce sync.Once
	wg        sync.WaitGroup

	// Recovered is the number of incomplete campaigns re-adopted from
	// their journals at startup.
	Recovered int
}

// New builds the service: it scans DataDir, re-adopts every incomplete
// campaign (anything with a spec but no terminal record — the crash
// recovery path), and starts the supervisor slots.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(campaignsDir(cfg.DataDir), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	terminal, incomplete, maxID, err := loadCampaigns(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		tel:        cfg.Telemetry,
		baseCtx:    ctx,
		baseCancel: cancel,
		campaigns:  make(map[string]*Campaign),
		notify:     make(chan struct{}, 1),
		drainCh:    make(chan struct{}),
		nextID:     maxID,
	}
	for _, c := range terminal {
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
	}
	for _, c := range incomplete {
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
		if err := c.Spec.Validate(); err != nil {
			// A spec that does not validate (edited on disk, or naming a
			// study this build lacks) would fail every attempt: record it
			// failed without opening its journal.
			c.adopted = false
			s.finish(c, StateFailed, err)
			close(c.done)
			continue
		}
		// Adoption bypasses the queue bound: recovered work is never
		// rejected, whatever QueueDepth says.
		s.queue = append(s.queue, c)
		s.Recovered++
		s.tel.Registry.Counter(telemetry.CtrServiceRecoveriesOnStart).Inc()
		s.logf("adopting incomplete campaign %s (study %s)", c.ID, c.Spec.Study)
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wake()
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Log, "clumsyd: "+format+"\n", args...)
}

// wake nudges one idle worker.
func (s *Service) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Submit validates, persists, and enqueues one campaign. The spec is on
// disk before Submit returns, so an acknowledged submission survives any
// later crash.
func (s *Service) Submit(sp Spec) (Status, error) {
	if err := sp.Validate(); err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Status{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.tel.Registry.Counter(telemetry.CtrServiceQueueRejections).Inc()
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	s.nextID++
	id := formatID(s.nextID)
	c := &Campaign{
		ID:    id,
		Spec:  sp,
		dir:   filepath.Join(campaignsDir(s.cfg.DataDir), id),
		state: StateQueued,
		done:  make(chan struct{}),
	}
	if err := c.persistSpec(); err != nil {
		s.nextID--
		s.mu.Unlock()
		return Status{}, err
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.queue = append(s.queue, c)
	s.tel.Registry.Counter(telemetry.CtrServiceCampaignsQueued).Inc()
	s.mu.Unlock()
	s.wake()
	return c.status(), nil
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List snapshots every campaign in submission order.
func (s *Service) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Get(id); ok {
			out = append(out, c.status())
		}
	}
	return out
}

// Cancel stops a campaign: a queued one is removed from the queue and
// terminally cancelled; a running one has its attempt context cancelled
// and its supervisor records the terminal state. Cancelling a terminal
// campaign is a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	c.mu.Lock()
	switch c.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == c {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		c.state = StateCancelled
		c.cancelled = true
		close(c.done)
		c.mu.Unlock()
		s.mu.Unlock()
		return c.persistTerminal()
	case StateRunning:
		c.cancelled = true
		stop := c.stop
		c.mu.Unlock()
		s.mu.Unlock()
		if stop != nil {
			stop()
		}
		return nil
	case StateCompleted, StateFailed, StateCancelled:
		c.mu.Unlock()
		s.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	s.mu.Unlock()
	return nil
}

// Draining reports whether the service has stopped admitting campaigns.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the scheduler down: admission stops
// immediately (submissions and queue pops), in-flight campaigns get
// until ctx expires to finish, and whatever is still running at the
// deadline is checkpoint-cancelled — its journal already holds every
// completed cell, so the next daemon start re-adopts and finishes it
// byte-identically. Campaigns still queued stay queued on disk and are
// likewise adopted on the next start. Drain returns once every
// supervisor has stopped.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	queued := len(s.queue)
	s.mu.Unlock()
	if queued > 0 {
		s.logf("drain: leaving %d queued campaign(s) for the next start", queued)
	}
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("drain: grace expired, checkpointing in-flight campaigns")
		s.baseCancel()
		<-done
	}
	s.baseCancel()
}

// Close shuts the service down immediately (checkpoint-cancel without a
// grace period). Safe after Drain.
func (s *Service) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.baseCancel()
	s.wg.Wait()
}

// worker is one supervisor slot: it pops queued campaigns and supervises
// them until shutdown or drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		c := s.pop()
		if c == nil {
			return
		}
		s.supervise(c)
	}
}

// pop blocks until a campaign is available, returning nil at shutdown or
// drain.
func (s *Service) pop() *Campaign {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil
		}
		if len(s.queue) > 0 {
			c := s.queue[0]
			s.queue = s.queue[1:]
			more := len(s.queue) > 0
			s.mu.Unlock()
			if more {
				s.wake()
			}
			return c
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-s.drainCh:
			// Loop: the draining check above returns nil for everyone.
		case <-s.baseCtx.Done():
			return nil
		}
	}
}

// supervise runs one campaign under the restart discipline: execute,
// and on failure restart with resume (the journal carries completed
// cells) up to MaxRestarts times. Cancellation is terminal; a drain
// checkpoint leaves the campaign incomplete for the next start.
func (s *Service) supervise(c *Campaign) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	c.mu.Lock()
	c.state = StateRunning
	c.stop = cancel
	resume := c.adopted
	c.mu.Unlock()
	s.tel.Registry.Counter(telemetry.CtrServiceCampaignsActive).Inc()
	s.logf("campaign %s: running study %s (resume=%v)", c.ID, c.Spec.Study, resume)

	defer close(c.done)
	for attempt := 0; ; attempt++ {
		err := s.runAttempt(ctx, c, resume)
		resume = true // every later attempt resumes from the journal
		if err == nil {
			s.finish(c, StateCompleted, nil)
			return
		}
		if ctx.Err() != nil {
			if c.cancelRequested() {
				s.finish(c, StateCancelled, err)
			} else {
				// Drain checkpoint: no terminal record, so the next start
				// adopts the campaign and resumes it.
				c.mu.Lock()
				c.state = StateQueued
				c.stop = nil
				c.mu.Unlock()
				s.logf("campaign %s: checkpointed by drain (journal flushed, resumable)", c.ID)
			}
			return
		}
		if attempt >= s.cfg.MaxRestarts {
			s.finish(c, StateFailed, err)
			return
		}
		c.mu.Lock()
		c.restarts++
		c.mu.Unlock()
		s.tel.Registry.Counter(telemetry.CtrServiceCampaignsRestarted).Inc()
		s.logf("campaign %s: attempt %d failed (%v), restarting with resume", c.ID, attempt, err)
		backoff := restartBackoff << attempt
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
		case <-timer.C:
		}
	}
}

// runAttempt executes the campaign's study once: open the journal (with
// resume semantics on restarts and adoption), run the study into a
// buffer under the attempt watchdog, and publish the result atomically.
// A panic in the study is contained and reported as the attempt's error.
func (s *Service) runAttempt(ctx context.Context, c *Campaign, resume bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: panic in study %s: %v", c.Spec.Study, r)
		}
	}()
	actx := ctx
	if s.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.cfg.AttemptTimeout)
		defer cancel()
	}
	j, loaded, err := experiment.OpenJournal(c.journalPath(), resume)
	if err != nil {
		return err
	}
	if resume && loaded > 0 {
		s.logf("campaign %s: resuming with %d recorded cell(s)", c.ID, loaded)
	}
	c.mu.Lock()
	c.journal = j
	c.cellsDone = loaded
	c.mu.Unlock()
	opt := c.Spec.options()
	opt.Ctx = actx
	opt.Journal = j
	opt.RunTimeout = s.cfg.CellTimeout
	var buf bytes.Buffer
	if err := runStudy(opt, c.Spec, &buf); err != nil {
		return err
	}
	return atomicio.WriteFile(c.resultPath(), func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	})
}

// finish records a terminal state, bumps the outcome counter, and
// persists the terminal record (after the result, so a crash between
// the two re-adopts and re-publishes identically).
func (s *Service) finish(c *Campaign, st State, cause error) {
	c.mu.Lock()
	c.state = st
	c.stop = nil
	if cause != nil {
		c.errMsg = cause.Error()
	}
	if j := c.journal; j != nil {
		c.cellsDone = j.Len()
	}
	c.mu.Unlock()
	switch st {
	case StateCompleted:
		s.tel.Registry.Counter(telemetry.CtrServiceCampaignsCompleted).Inc()
	case StateFailed:
		s.tel.Registry.Counter(telemetry.CtrServiceCampaignsFailed).Inc()
	case StateCancelled, StateQueued, StateRunning:
		// Cancelled bumps no outcome counter; queued/running are never
		// passed here.
	}
	if err := c.persistTerminal(); err != nil {
		s.logf("campaign %s: recording terminal state: %v", c.ID, err)
	}
	s.logf("campaign %s: %s", c.ID, st)
}
