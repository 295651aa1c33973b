package sim

import "math/bits"

// Snapshot support: the engine exposes just enough of its internals to
// let a checkpoint capture the clock, the sequence counter and the
// queued events, and to let a restore rebuild an equivalent queue.
//
// Only coroutine-step and EventHandler events are externally
// describable: closure events (func() and func(Time) payloads) are
// opaque host functions and cannot survive a process boundary. The
// capture layer (core/checkpoint.go) therefore quiesces the machine to
// a point where no closure events are pending before it snapshots.

// SnapshotClock returns the current simulated time and the last
// assigned event sequence number.
func (e *Engine) SnapshotClock() (Time, uint64) { return e.now, e.seq }

// ForEachEvent calls f for every queued event in unspecified order.
// Exactly one of coro/h is non-nil for serializable events; opaque is
// true for closure events (At/Schedule and CallAt/ScheduleCall
// payloads), which a checkpoint cannot represent.
func (e *Engine) ForEachEvent(f func(at Time, seq uint64, coro *Coro, h EventHandler, opaque bool)) {
	report := func(ev *event) {
		switch p := ev.h.(type) {
		case *coroStep:
			f(ev.at, ev.seq, (*Coro)(p), nil, false)
		case callEvent, funcEvent:
			f(ev.at, ev.seq, nil, nil, true)
		default:
			f(ev.at, ev.seq, nil, ev.h, false)
		}
	}
	for i := range e.far {
		report(&e.far[i])
	}
	for w, b := range e.occ {
		for ; b != 0; b &= b - 1 {
			s := w<<6 | bits.TrailingZeros64(b)
			for i := e.slots[s].head; i != 0; i = e.nodes[i].next {
				report(&e.nodes[i].ev)
			}
		}
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
	clear(e.far)
	e.far = e.far[:0]
	clear(e.nodes)
	e.nodes = e.nodes[:1]
	e.free = 0
	e.occ = [wheelSize / 64]uint64{}
	e.wheelN = 0
}

// RestoreEvent inserts an event with an explicit (at, seq) pair taken
// from a snapshot, preserving the original total order. It does not
// advance the engine's sequence counter: the caller restores that via
// RestoreClock. Exactly one of coro/h must be non-nil. Restored events
// wait in the far heap, whatever their time: the wheel's slots hold
// only events pushed after the restore, in seq order.
func (e *Engine) RestoreEvent(at Time, seq uint64, coro *Coro, h EventHandler) {
	if coro != nil {
		h = (*coroStep)(coro)
	} else if h == nil {
		panic("sim: RestoreEvent with no payload")
	}
	e.insert(event{at: at, seq: seq, h: h})
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
