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
// Host-time performance: an event due less than wheelSize cycles after
// now goes into a timing wheel of one-cycle FIFO slots, found through
// an occupancy bitmap, so scheduling and dispatching it take constant
// time; later events, and events a snapshot restore re-inserts, wait in
// a 4-ary min-heap, and Run takes whichever head is earlier by
// (time, seq). Every event carries one EventHandler word: the
// coroutine-step (StepAt/ScheduleStep), timed-callback (CallAt/
// ScheduleCall) and closure (At/Schedule) paths store their payload
// through pointer-shaped adapter types that convert without
// allocating, and a pre-existing object (AtEvent/ScheduleEvent) is
// stored as is. See DESIGN.md "Engine internals".
package sim

import (
	"fmt"
	"math/bits"
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

// The adapters below carry the other scheduling paths' payloads in the
// event's one handler word. Each is pointer-shaped (a pointer or a func
// value), so converting one to EventHandler does not allocate, and
// ForEachEvent tells them apart by type.
type (
	coroStep  Coro       // step the coroutine
	callEvent func(Time) // call with the fire time
	funcEvent func()     // call
)

func (c *coroStep) OnEvent(Time)     { (*Coro)(c).Step() }
func (f callEvent) OnEvent(now Time) { f(now) }
func (f funcEvent) OnEvent(Time)     { f() }

// event is one queued entry.
type event struct {
	at  Time
	seq uint64
	h   EventHandler
}

// before is the queue's total order: (time, sequence number).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// wheelSize is the timing wheel's horizon in cycles, one slot per
// cycle. It must be a power of two (a slot is at&wheelMask) and a
// multiple of 64 (the occupancy bitmap's word). Nearly every event a
// fault-free machine schedules falls well within it (a network hop is
// 120 cycles), so only a sliver of events reach the heap.
const wheelSize = 4096

const wheelMask = wheelSize - 1

// wheelNode is one wheel event, linked into its slot's FIFO or, once
// dispatched, into the free list.
type wheelNode struct {
	ev   event
	next int32 // index in Engine.nodes; 0 ends the list
}

// slot is one wheel slot's FIFO, valid while its occupancy bit is set.
type slot struct {
	head, tail int32
}

// Engine is the discrete-event simulator core. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// The wheel holds every event pushed with at-now < wheelSize, so
	// all of them lie in [now, now+wheelSize) and slot at&wheelMask
	// holds events of one time only. A push appends to its slot with a
	// sequence number above every queued one, so each slot is in seq
	// order and its head is the slot's minimum.
	occ    [wheelSize / 64]uint64 // bit s set: slot s is non-empty
	slots  [wheelSize]slot
	nodes  []wheelNode // node slab; nodes[0] is unused so 0 means none
	free   int32       // head of the free-node list
	wheelN int

	far []event // 4-ary min-heap by (at, seq): far-future and restored events

	// running guards Run: set while processing events, checked
	// atomically so that reentrant *and* cross-goroutine misuse
	// fails deterministically instead of racing on the queue.
	running atomic.Bool
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine {
	return &Engine{nodes: make([]wheelNode, 1, 64)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at now+delay. Events scheduled for
// the same instant run in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.push(e.now+delay, funcEvent(fn))
}

// At arranges for fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, funcEvent(fn))
}

// ScheduleStep arranges for c to be stepped at now+delay without
// allocating a wake-up closure. It is the hot path behind WaitUntil
// and Queue.WakeOne/WakeAll.
func (e *Engine) ScheduleStep(delay Time, c *Coro) {
	e.push(e.now+delay, (*coroStep)(c))
}

// StepAt is the absolute-time variant of ScheduleStep.
func (e *Engine) StepAt(t Time, c *Coro) {
	e.push(t, (*coroStep)(c))
}

// ScheduleEvent arranges for h.OnEvent to run at now+delay. h is
// typically a long-lived (pooled or embedded) model object, so the
// schedule allocates nothing.
func (e *Engine) ScheduleEvent(delay Time, h EventHandler) {
	e.push(e.now+delay, h)
}

// AtEvent is the absolute-time variant of ScheduleEvent.
func (e *Engine) AtEvent(t Time, h EventHandler) {
	e.push(t, h)
}

// ScheduleCall arranges for fn(t) to run at t = now+delay. Passing an
// existing func(Time) value stores it directly in the queue — unlike
// wrapping it in a fresh `func(){ fn(t) }` closure, nothing is
// allocated.
func (e *Engine) ScheduleCall(delay Time, fn func(Time)) {
	e.push(e.now+delay, callEvent(fn))
}

// CallAt is the absolute-time variant of ScheduleCall.
func (e *Engine) CallAt(t Time, fn func(Time)) {
	e.push(t, callEvent(fn))
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.wheelN + len(e.far) }

// push queues h at time t, assigning the next sequence number.
func (e *Engine) push(t Time, h EventHandler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, e.now))
	}
	e.seq++
	if t-e.now >= wheelSize {
		e.insert(event{at: t, seq: e.seq, h: h})
		return
	}
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{})
	}
	e.nodes[i] = wheelNode{ev: event{at: t, seq: e.seq, h: h}}
	s := int(t & wheelMask)
	if e.occ[s>>6]&(1<<(s&63)) != 0 {
		e.nodes[e.slots[s].tail].next = i
		e.slots[s].tail = i
	} else {
		e.occ[s>>6] |= 1 << (s & 63)
		e.slots[s] = slot{head: i, tail: i}
	}
	e.wheelN++
}

// nextSlot returns the wheel's earliest occupied slot: the first set
// occupancy bit at or after now's slot, wrapping around. The wheel must
// not be empty.
func (e *Engine) nextSlot() int {
	s := int(e.now & wheelMask)
	w := s >> 6
	if b := e.occ[w] >> (s & 63); b != 0 {
		return s + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(e.occ); i++ {
		j := (w + i) & (len(e.occ) - 1)
		if b := e.occ[j]; b != 0 {
			return j<<6 | bits.TrailingZeros64(b)
		}
	}
	panic("sim: wheel count and occupancy disagree")
}

// head returns the earliest queued event, or nil when the queue is
// empty, and the wheel slot holding it, or -1 for the far heap's root.
// A far event due at the same time as the wheel's head wins only with
// the smaller seq.
func (e *Engine) head() (*event, int) {
	if e.wheelN == 0 {
		if len(e.far) == 0 {
			return nil, -1
		}
		return &e.far[0], -1
	}
	s := e.nextSlot()
	w := &e.nodes[e.slots[s].head].ev
	if len(e.far) > 0 && e.far[0].before(w) {
		return &e.far[0], -1
	}
	return w, s
}

// take removes and returns the event head reported with slot s.
func (e *Engine) take(s int) event {
	if s < 0 {
		return e.popFar()
	}
	sl := &e.slots[s]
	i := sl.head
	n := &e.nodes[i]
	ev := n.ev
	if n.next == 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	} else {
		sl.head = n.next
	}
	*n = wheelNode{next: e.free} // release the handler reference
	e.free = i
	e.wheelN--
	return ev
}

// arity is the far heap's branching factor. A 4-ary heap trades
// slightly more comparisons per sift-down for half the tree depth of a
// binary heap, and keeps the four children of a node in two cache
// lines.
const arity = 4

// insert adds a fully stamped event to the far heap.
func (e *Engine) insert(ev event) {
	h := append(e.far, event{})
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
	e.far = h
}

// popFar removes and returns the far heap's minimum event. The heap
// must not be empty.
func (e *Engine) popFar() event {
	h := e.far
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the handler reference
	h = h[:n]
	e.far = h
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
	for {
		p, s := e.head()
		if p == nil || p.at > limit {
			break
		}
		ev := e.take(s)
		e.now = ev.at
		ev.h.OnEvent(ev.at)
		n++
	}
	return n
}

// RunUntilIdle processes all events without a time bound.
func (e *Engine) RunUntilIdle() int { return e.Run(Forever) }
