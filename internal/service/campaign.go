package service

import (
	"fmt"
	"sync"

	"clumsy/internal/experiment"
)

// State is a campaign's lifecycle position. Queued and Running are
// volatile (lost on a crash — an interrupted campaign is re-adopted as
// Queued); Completed, Failed, and Cancelled are terminal and persisted
// in the campaign's state.json.
//
//lint:exhaustive
type State int

const (
	// StateQueued: accepted, waiting for a supervisor slot.
	StateQueued State = iota
	// StateRunning: a supervisor goroutine is executing the campaign.
	StateRunning
	// StateCompleted: the study finished and result.txt is published.
	StateCompleted
	// StateFailed: the study failed terminally after exhausting the
	// supervised restart budget.
	StateFailed
	// StateCancelled: cancelled by the operator before completion.
	StateCancelled
)

// String names the state for status reports and state.json.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// parseState maps a state.json name back to its value. Only terminal
// states are ever persisted; anything else is rejected so a corrupt
// record cannot masquerade as progress.
func parseState(s string) (State, error) {
	switch s {
	case "completed":
		return StateCompleted, nil
	case "failed":
		return StateFailed, nil
	case "cancelled":
		return StateCancelled, nil
	}
	return 0, fmt.Errorf("service: non-terminal state %q in state record", s)
}

// Campaign is one scheduled study: the submitted spec plus the
// supervisor-visible lifecycle. All mutable fields are guarded by mu;
// the immutable identity fields (ID, Spec, dir) are set before the
// campaign is published and never change.
type Campaign struct {
	ID   string
	Spec Spec
	dir  string // on-disk home: spec.json, journal.jsonl, result.txt, state.json

	mu        sync.Mutex
	state     State
	adopted   bool                // re-adopted from a journal at startup
	restarts  int                 // supervised restart-with-resume attempts so far
	cellsDone int                 // journal entries at last observation
	journal   *experiment.Journal // live journal while an attempt runs
	errMsg    string
	cancelled bool          // operator cancel requested
	stop      func()        // cancels the running attempt's context
	done      chan struct{} // closed when the supervisor finishes
}

// Status is the externally visible snapshot of a campaign, served by the
// HTTP API and returned by Submit.
type Status struct {
	ID        string `json:"id"`
	Study     string `json:"study"`
	App       string `json:"app,omitempty"`
	State     string `json:"state"`
	Adopted   bool   `json:"adopted,omitempty"`
	Restarts  int    `json:"restarts,omitempty"`
	CellsDone int    `json:"cells_done"`
	Error     string `json:"error,omitempty"`
}

// status snapshots the campaign under its lock. While an attempt is
// running the cell count is read live from its journal.
func (c *Campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		c.cellsDone = c.journal.Len()
	}
	return Status{
		ID:        c.ID,
		Study:     c.Spec.Study,
		App:       c.Spec.App,
		State:     c.state.String(),
		Adopted:   c.adopted,
		Restarts:  c.restarts,
		CellsDone: c.cellsDone,
		Error:     c.errMsg,
	}
}

// currentState reads the state under the lock.
func (c *Campaign) currentState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// cancelRequested reads the operator-cancel flag under the lock.
func (c *Campaign) cancelRequested() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}
