// Package sim provides the deterministic discrete-event simulation
// engine underneath the PRISM machine model: a simulated clock, an
// event queue, coroutine-style processor contexts with strict
// one-runnable-at-a-time handoff, FIFO occupancy resources, and
// blocking queues used to build barriers and locks.
//
// The engine plays the role Augmint played for the paper: workloads
// execute functionally on the host while the engine accounts for time.
// Determinism: events are ordered by (time, sequence number), exactly
// one goroutine runs at any instant, and all model state is mutated
// only from engine context or from the single running coroutine.
//
// One-engine-per-goroutine invariant: an Engine — and every model
// object attached to it (resources, networks, machines) — is confined
// to the single goroutine that drives Run. The workload coroutines an
// engine manages run only while that goroutine is switched out to
// them inside Step (see Coro), so they never violate this.
// Engines share no package state: distinct Engine instances are fully
// independent and may run concurrently on distinct goroutines, which
// is exactly how the parallel experiment harness executes one Machine
// per worker. Run detects concurrent entry from a second goroutine and
// panics rather than corrupting the event queue.
//
// Host-time performance: the queue is a hand-specialized 4-ary min-heap
// over a plain []event — no container/heap, no interface{} boxing, no
// per-operation allocation. Besides the classic closure event (At/
// Schedule), the engine offers three allocation-free scheduling paths
// for the dispatch shapes that dominate PRISM runs: step-a-coroutine
// (StepAt/ScheduleStep), a pre-existing EventHandler object (AtEvent/
// ScheduleEvent) and a timed callback func(Time) (CallAt/ScheduleCall).
// See DESIGN.md "Engine internals".
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated time in processor cycles.
type Time uint64

// Forever is a time later than any event the simulation schedules.
const Forever = Time(^uint64(0) >> 1)

// EventHandler is implemented by model objects that schedule themselves
// without allocating a closure per event: storing an existing pointer
// in the event queue costs nothing, whereas a `func(){...}` literal
// that captures variables heap-allocates on every call. OnEvent runs in
// engine context at the event's time (passed as now).
type EventHandler interface {
	OnEvent(now Time)
}

// event is one queued entry. Exactly one of the payload fields is set;
// dispatch order is coro, handler, call, fn. All payloads are stored
// inline in the heap slice, so scheduling never allocates beyond
// amortized slice growth (and the closure itself for the fn path).
type event struct {
	at      Time
	seq     uint64
	coro    *Coro        // step this coroutine
	handler EventHandler // invoke OnEvent(at)
	call    func(Time)   // invoke call(at)
	fn      func()       // invoke fn()
}

// before is the queue's total order: (time, sequence number).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is the discrete-event simulator core. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq)

	// running guards Run: set while processing events, checked
	// atomically so that reentrant *and* cross-goroutine misuse
	// fails deterministically instead of racing on the heap.
	running atomic.Bool
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at now+delay. Events scheduled for
// the same instant run in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.push(e.now+delay, event{fn: fn})
}

// At arranges for fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, event{fn: fn})
}

// ScheduleStep arranges for c to be stepped at now+delay without
// allocating a wake-up closure. It is the hot path behind WaitUntil
// and Queue.WakeOne/WakeAll.
func (e *Engine) ScheduleStep(delay Time, c *Coro) {
	e.push(e.now+delay, event{coro: c})
}

// StepAt is the absolute-time variant of ScheduleStep.
func (e *Engine) StepAt(t Time, c *Coro) {
	e.push(t, event{coro: c})
}

// ScheduleEvent arranges for h.OnEvent to run at now+delay. h is
// typically a long-lived (pooled or embedded) model object, so the
// schedule allocates nothing.
func (e *Engine) ScheduleEvent(delay Time, h EventHandler) {
	e.push(e.now+delay, event{handler: h})
}

// AtEvent is the absolute-time variant of ScheduleEvent.
func (e *Engine) AtEvent(t Time, h EventHandler) {
	e.push(t, event{handler: h})
}

// ScheduleCall arranges for fn(t) to run at t = now+delay. Passing an
// existing func(Time) value stores it directly in the queue — unlike
// wrapping it in a fresh `func(){ fn(t) }` closure, nothing is
// allocated.
func (e *Engine) ScheduleCall(delay Time, fn func(Time)) {
	e.push(e.now+delay, event{call: fn})
}

// CallAt is the absolute-time variant of ScheduleCall.
func (e *Engine) CallAt(t Time, fn func(Time)) {
	e.push(t, event{call: fn})
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// arity is the heap's branching factor. A 4-ary heap trades slightly
// more comparisons per sift-down for half the tree depth of a binary
// heap — fewer cache-missing levels on the sift paths that dominate
// pop — and keeps the four children of a node in two cache lines.
const arity = 4

// push inserts ev at time t, assigning the next sequence number.
func (e *Engine) push(t Time, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, e.now))
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	e.insert(ev)
}

// insert adds a fully stamped event to the heap.
func (e *Engine) insert(ev event) {
	h := append(e.events, event{})
	// Sift up with a hole: parents move down until ev's slot is found,
	// so ev is written exactly once.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event. The queue must not be
// empty.
func (e *Engine) pop() event {
	h := e.events
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release closure/handler references
	h = h[:n]
	e.events = h
	if n == 0 {
		return min
	}
	// Sift the former last element down with a hole.
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		end := first + arity
		if end > n {
			end = n
		}
		best := first
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return min
}

// engineMisuseMsg is the documented panic for driving one engine from
// two places at once: reentrant Run, or Run from a second goroutine.
const engineMisuseMsg = "sim: Engine.Run entered twice (reentrant or concurrent use; one engine per goroutine)"

// dispatch executes one popped event with the clock already advanced.
func (e *Engine) dispatch(ev *event) {
	switch {
	case ev.coro != nil:
		ev.coro.Step()
	case ev.handler != nil:
		ev.handler.OnEvent(ev.at)
	case ev.call != nil:
		ev.call(ev.at)
	default:
		ev.fn()
	}
}

// Run processes events in time order until the queue drains or the
// clock would pass limit. It returns the number of events processed.
// Run is not reentrant and must not be invoked on the same engine from
// two goroutines: each goroutine needs its own Engine (see the package
// comment's one-engine-per-goroutine invariant).
func (e *Engine) Run(limit Time) int {
	if !e.running.CompareAndSwap(false, true) {
		panic(engineMisuseMsg)
	}
	defer e.running.Store(false)

	n := 0
	for len(e.events) > 0 {
		if e.events[0].at > limit {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.dispatch(&ev)
		n++
	}
	return n
}

// RunUntilIdle processes all events without a time bound.
func (e *Engine) RunUntilIdle() int { return e.Run(Forever) }
