package sim

// Snapshot support: the engine exposes just enough of its internals to
// let a checkpoint capture the clock, the sequence counter and the
// queued events, and to let a restore rebuild an equivalent heap.
//
// Only coroutine-step and EventHandler events are externally
// describable: closure events (fn/call payloads) are opaque host
// functions and cannot survive a process boundary. The capture layer
// (core/checkpoint.go) therefore quiesces the machine to a point where
// no closure events are pending before it snapshots.

// SnapshotClock returns the current simulated time and the last
// assigned event sequence number.
func (e *Engine) SnapshotClock() (Time, uint64) { return e.now, e.seq }

// ForEachEvent calls f for every queued event in unspecified (heap)
// order. Exactly one of coro/h is non-nil for serializable events;
// opaque is true for closure events (fn or call payloads), which a
// checkpoint cannot represent.
func (e *Engine) ForEachEvent(f func(at Time, seq uint64, coro *Coro, h EventHandler, opaque bool)) {
	for i := range e.events {
		ev := &e.events[i]
		f(ev.at, ev.seq, ev.coro, ev.handler, ev.coro == nil && ev.handler == nil)
	}
}

// RestoreClock sets the clock and sequence counter and clears the event
// queue. The caller then re-inserts the snapshot's events with
// RestoreEvent. It must not be called while Run is executing.
func (e *Engine) RestoreClock(now Time, seq uint64) {
	if e.running.Load() {
		panic("sim: RestoreClock during Run")
	}
	e.now = now
	e.seq = seq
	e.events = e.events[:0]
}

// RestoreEvent inserts an event with an explicit (at, seq) pair taken
// from a snapshot, preserving the original total order. It does not
// advance the engine's sequence counter: the caller restores that via
// RestoreClock. Exactly one of coro/h must be non-nil.
func (e *Engine) RestoreEvent(at Time, seq uint64, coro *Coro, h EventHandler) {
	if coro == nil && h == nil {
		panic("sim: RestoreEvent with no payload")
	}
	e.insert(event{at: at, seq: seq, coro: coro, handler: h})
}

// ResourceState is the serializable state of a Resource: the occupancy
// horizon plus the measurement counters.
type ResourceState struct {
	FreeAt    Time
	Grants    uint64
	BusyTotal Time
	WaitTotal Time
}

// ExportState captures the resource.
func (r *Resource) ExportState() ResourceState {
	return ResourceState{FreeAt: r.freeAt, Grants: r.Grants, BusyTotal: r.BusyTotal, WaitTotal: r.WaitTotal}
}

// ImportState restores the resource from a snapshot.
func (r *Resource) ImportState(s ResourceState) {
	r.freeAt = s.FreeAt
	r.Grants = s.Grants
	r.BusyTotal = s.BusyTotal
	r.WaitTotal = s.WaitTotal
}
