package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"prism/internal/harness"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued and Running are live; the other three are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's ordered event log: a state change or a
// harness progress line. The log is replayed in full to every SSE
// subscriber, so a late subscriber sees the same stream an early one
// did.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "status" or "log"
	Data string `json:"data"`
}

// Event types.
const (
	EventStatus = "status"
	EventLog    = "log"
)

// StatusData is the JSON payload of a status event.
type StatusData struct {
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Job is one submitted experiment. All mutable state is behind mu;
// the broadcast channel is closed and replaced on every append so any
// number of SSE streams can wait without polling.
type Job struct {
	ID     string
	Spec   *harness.Spec
	Digest string

	mu      sync.Mutex
	state   State
	cached  bool
	errMsg  string
	result  *Result
	events  []Event
	changed chan struct{}
	cancel  context.CancelFunc
}

func newJob(id string, spec *harness.Spec, digest string) *Job {
	j := &Job{
		ID:      id,
		Spec:    spec,
		Digest:  digest,
		state:   StateQueued,
		changed: make(chan struct{}),
	}
	j.appendStatusLocked()
	return j
}

// appendLocked records an event and wakes every waiter. Callers hold mu
// (newJob runs before the job is shared, which counts).
func (j *Job) appendLocked(typ, data string) {
	j.events = append(j.events, Event{Seq: len(j.events), Type: typ, Data: data})
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) appendStatusLocked() {
	data, err := json.Marshal(StatusData{State: j.state, Cached: j.cached, Error: j.errMsg})
	if err != nil {
		panic(err) // StatusData cannot fail to marshal
	}
	j.appendLocked(EventStatus, string(data))
}

// Log appends progress lines (one event per line). It is the job's
// harness.Options.Log sink; harness writes whole lines per call.
func (j *Job) Log(p []byte) (int, error) {
	lines := strings.Split(strings.TrimRight(string(p), "\n"), "\n")
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ln := range lines {
		if ln != "" {
			j.appendLocked(EventLog, ln)
		}
	}
	return len(p), nil
}

// logWriter adapts Job to io.Writer for harness.Options.Log.
type logWriter struct{ j *Job }

func (w logWriter) Write(p []byte) (int, error) { return w.j.Log(p) }

// setState transitions the job and appends a status event. It refuses
// to leave a terminal state (a cancel racing a completion keeps
// whichever landed first).
func (j *Job) setState(s State, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	j.errMsg = errMsg
	j.appendStatusLocked()
	return true
}

// tryStart moves a queued job to running; false means the job was
// canceled while waiting in the queue.
func (j *Job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.appendStatusLocked()
	return true
}

// complete stores the result and marks the job done. fromCache tags
// cache-served jobs in their status payloads.
func (j *Job) complete(res *Result, fromCache bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.result = res
	j.cached = fromCache
	j.state = StateDone
	if fromCache {
		j.appendLocked(EventLog, fmt.Sprintf("served from result cache (digest %.12s…)", j.Digest))
	}
	j.appendStatusLocked()
}

// Cancel aborts the job: a queued job flips to canceled immediately, a
// running job has its context canceled (the harness stops at the next
// cell boundary and the worker records the terminal state). It reports
// whether the job was still live.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	if j.state == StateQueued {
		j.state = StateCanceled
		j.errMsg = "canceled while queued"
		j.appendStatusLocked()
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Result returns the stored result, or nil while the job is live or
// after a failure.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Status is the job's wire representation.
type Status struct {
	ID     string        `json:"id"`
	State  State         `json:"state"`
	Cached bool          `json:"cached,omitempty"`
	Digest string        `json:"digest"`
	Error  string        `json:"error,omitempty"`
	Events int           `json:"events"`
	Spec   *harness.Spec `json:"spec,omitempty"`
}

// Status snapshots the job. withSpec includes the normalized spec
// (detail views; list views stay compact).
func (j *Job) Status(withSpec bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:     j.ID,
		State:  j.state,
		Cached: j.cached,
		Digest: j.Digest,
		Error:  j.errMsg,
		Events: len(j.events),
	}
	if withSpec {
		st.Spec = j.Spec
	}
	return st
}

// EventsFrom returns the events at sequence >= from, a channel that is
// closed when more arrive, and whether the job has reached a terminal
// state (an SSE stream that has drained the log of a terminal job is
// finished).
func (j *Job) EventsFrom(from int) (evs []Event, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.changed, j.state.Terminal()
}
