package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// JSONLSink serialises structured trace events to an io.Writer as JSON
// Lines, one complete object per line. It is safe for concurrent use; the
// parallel experiment workers all write through one sink and lines never
// interleave.
type JSONLSink struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  io.Closer
}

// NewJSONLSink wraps w in a buffered JSONL sink. If w is also an
// io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// write appends one record (a complete JSON object without the trailing
// newline) to the stream.
func (s *JSONLSink) write(line []byte) {
	s.mu.Lock()
	s.w.Write(line)
	s.w.WriteByte('\n')
	s.mu.Unlock()
}

// Flush drains the write buffer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close flushes and, when the underlying writer is closable, closes it.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RunTrace emits the structured events of one simulation run, stamping
// each with the run's sequence number and the current simulated cycle. A
// nil *RunTrace is the disabled trace: every method returns immediately,
// so instrumented code needs no separate enable flag.
//
// A RunTrace is used from the single goroutine driving its run (it reuses
// an internal scratch buffer); distinct runs may trace concurrently
// through the shared sink.
type RunTrace struct {
	sink  *JSONLSink
	run   uint64
	clock func() float64
	buf   []byte
}

// begin starts a record with the common fields: run, cycle, type.
func (rt *RunTrace) begin(typ string) []byte {
	b := append(rt.buf[:0], `{"run":`...)
	b = strconv.AppendUint(b, rt.run, 10)
	b = append(b, `,"cycle":`...)
	cycle := 0.0
	if rt.clock != nil {
		cycle = rt.clock()
	}
	b = strconv.AppendFloat(b, cycle, 'f', -1, 64)
	b = append(b, `,"type":"`...)
	b = append(b, typ...)
	b = append(b, '"')
	return b
}

func (rt *RunTrace) end(b []byte) {
	b = append(b, '}')
	rt.sink.write(b)
	rt.buf = b
}

func appendStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendQuote(b, v)
}

func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendUint(b, v, 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return strconv.AppendBool(b, v)
}

// RunStart records the configuration of a run.
func (rt *RunTrace) RunStart(app string, packets int, seed uint64, cr float64, dynamic bool, detection string, strikes int, scale float64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventRunStart)
	b = appendStr(b, "app", app)
	b = appendInt(b, "packets", int64(packets))
	b = appendUint(b, "seed", seed)
	b = appendFloat(b, "cr", cr)
	b = appendBool(b, "dynamic", dynamic)
	b = appendStr(b, "detection", detection)
	b = appendInt(b, "strikes", int64(strikes))
	b = appendFloat(b, "scale", scale)
	rt.end(b)
}

// RunEnd records the outcome of a run: completed packets, packets dropped
// by fault containment (or the single fatal packet of an aborted run),
// instructions, and whether the run ended fatally.
func (rt *RunTrace) RunEnd(processed, dropped int, instrs uint64, fatal bool) {
	if rt == nil {
		return
	}
	b := rt.begin(EventRunEnd)
	b = appendInt(b, "processed", int64(processed))
	b = appendInt(b, "dropped", int64(dropped))
	b = appendUint(b, "instrs", instrs)
	b = appendBool(b, "fatal", fatal)
	rt.end(b)
}

// FaultInjection records one injected fault event on the L1D read or write
// path: how many bits flipped and at which simulated address.
func (rt *RunTrace) FaultInjection(path string, bitsFlipped int, addr uint64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventFaultInjection)
	b = appendStr(b, "path", path)
	b = appendInt(b, "bits", int64(bitsFlipped))
	b = appendUint(b, "addr", addr)
	rt.end(b)
}

// Recovery records one step of the k-strike recovery machinery: kind is
// "retry" (an L1 re-read), "line" (full-line invalidate and refetch),
// "subblock" (per-word refetch), or "ecc_correct" (transparent SEC-DED
// repair). attempt is the strike number that triggered the step.
func (rt *RunTrace) Recovery(kind string, attempt int, addr uint64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventRecovery)
	b = appendStr(b, "kind", kind)
	b = appendInt(b, "attempt", int64(attempt))
	b = appendUint(b, "addr", addr)
	rt.end(b)
}

// FreqTransition records one dynamic-frequency decision that changed the
// operating point: the packet index at which it took effect, the decision
// ("speed up" / "slow down"), and the new relative cycle time.
func (rt *RunTrace) FreqTransition(packet int, decision string, cr float64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventFreqTransition)
	b = appendInt(b, "packet", int64(packet))
	b = appendStr(b, "decision", decision)
	b = appendFloat(b, "cr", cr)
	rt.end(b)
}

// PacketDrop records one packet killed by a fatal error (watchdog trip,
// memory trap, traversal loop, or contained panic). Under the abort policy
// it is the packet on which the run died and the rest of the trace is
// lost; under drop-and-continue each contained fault emits one.
func (rt *RunTrace) PacketDrop(packet int, reason string) {
	if rt == nil {
		return
	}
	b := rt.begin(EventPacketDrop)
	b = appendInt(b, "packet", int64(packet))
	b = appendStr(b, "reason", reason)
	rt.end(b)
}

// CampaignResume records that a campaign reattached to a journal and will
// skip the cells already completed by an earlier (killed or finished)
// invocation.
func (rt *RunTrace) CampaignResume(journal string, cells int) {
	if rt == nil {
		return
	}
	b := rt.begin(EventCampaignResume)
	b = appendStr(b, "journal", journal)
	b = appendInt(b, "cells", int64(cells))
	rt.end(b)
}

// CellTimeout records one campaign grid cell failed by its wall-clock
// deadline instead of being allowed to wedge the grid.
func (rt *RunTrace) CellTimeout(study string, index int, seconds float64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventCellTimeout)
	b = appendStr(b, "study", study)
	b = appendInt(b, "index", int64(index))
	b = appendFloat(b, "seconds", seconds)
	rt.end(b)
}

// LineDisable records one L1D frame disabled by the strike-budget
// recovery action: the faulting address, the strike count that exhausted
// the budget, and the total number of frames now dead.
func (rt *RunTrace) LineDisable(addr uint64, strikes, deadLines int) {
	if rt == nil {
		return
	}
	b := rt.begin(EventLineDisable)
	b = appendUint(b, "addr", addr)
	b = appendInt(b, "strikes", int64(strikes))
	b = appendInt(b, "dead_lines", int64(deadLines))
	rt.end(b)
}

// BurstEnter records the burst process entering the bad (droop episode)
// state; episode is the cumulative episode count.
func (rt *RunTrace) BurstEnter(episode uint64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventBurstEnter)
	b = appendUint(b, "episode", episode)
	rt.end(b)
}

// BurstExit records the burst process returning to the good state.
func (rt *RunTrace) BurstExit(episode uint64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventBurstExit)
	b = appendUint(b, "episode", episode)
	rt.end(b)
}

// NodeTransition records one fleet-node health state transition: the node
// index, the states left and entered, and the evidence that drove it.
func (rt *RunTrace) NodeTransition(node int, from, to, reason string) {
	if rt == nil {
		return
	}
	b := rt.begin(EventNodeTransition)
	b = appendInt(b, "node", int64(node))
	b = appendStr(b, "from", from)
	b = appendStr(b, "to", to)
	b = appendStr(b, "reason", reason)
	rt.end(b)
}

// NodeReclock records one drain-complete re-clock: the node index and the
// relative cycle time it was re-clocked to.
func (rt *RunTrace) NodeReclock(node int, cr float64) {
	if rt == nil {
		return
	}
	b := rt.begin(EventNodeReclock)
	b = appendInt(b, "node", int64(node))
	b = appendFloat(b, "cr", cr)
	rt.end(b)
}

// StateCorrupt records one recovery-ladder action on a corrupted flow
// record: the packet during which the mismatch surfaced, the record index,
// the action taken ("evict", "rebuild", or "unrecoverable"), and the
// record's cumulative strike count.
func (rt *RunTrace) StateCorrupt(packet, record int, action string, strikes int) {
	if rt == nil {
		return
	}
	b := rt.begin(EventStateCorrupt)
	b = appendInt(b, "packet", int64(packet))
	b = appendInt(b, "record", int64(record))
	b = appendStr(b, "action", action)
	b = appendInt(b, "strikes", int64(strikes))
	rt.end(b)
}

// StateScrub records one periodic flow-table scrub pass: the packet index
// after which it ran, the records verified, and the mismatches it caught.
func (rt *RunTrace) StateScrub(packet, records, detected int) {
	if rt == nil {
		return
	}
	b := rt.begin(EventStateScrub)
	b = appendInt(b, "packet", int64(packet))
	b = appendInt(b, "records", int64(records))
	b = appendInt(b, "detected", int64(detected))
	rt.end(b)
}

// StateRestore records one fault-containment recovery: after dropping the
// given packet, the control-plane state was rolled back to the last packet
// boundary by restoring `pages` dirty pages of simulated memory.
func (rt *RunTrace) StateRestore(packet, pages int, reason string) {
	if rt == nil {
		return
	}
	b := rt.begin(EventStateRestore)
	b = appendInt(b, "packet", int64(packet))
	b = appendInt(b, "pages", int64(pages))
	b = appendStr(b, "reason", reason)
	rt.end(b)
}
