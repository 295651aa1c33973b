//go:build go1.23

package sim

import "iter"

// Coro is a coroutine context for one simulated processor. The
// processor's workload code runs on its own goroutine, but exactly one
// of {engine, some coroutine} is executing at any moment. A coroutine
// runs until it blocks (waiting for a modeled latency or a
// synchronization event) or finishes; the engine then continues
// processing events.
//
// This is the execution-driven simulation structure of Augmint: the
// functional program runs natively, yielding to the timing model at
// every point where simulated time must pass.
//
// The body runs inside an iter.Pull sequence: Step is the pull's next
// and Block is the sequence's yield. The runtime switches the thread
// directly between the two goroutines (coroswitch), so a block/step
// round trip never touches the scheduler's run queues or wakes another
// CPU. A panic in the body re-panics out of the Step that resumed it,
// in the caller's goroutine.
type Coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	done  bool

	// Label is a diagnostic name ("node2.cpu1").
	Label string
}

// NewCoro allocates an un-started coroutine context.
func NewCoro(label string) *Coro {
	return &Coro{Label: label}
}

// Start prepares body to run as the coroutine. The body does not begin
// executing until the first Step. When body returns (or panics), the
// coroutine is marked done and control passes back to the engine.
func (c *Coro) Start(body func()) {
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() { c.done = true }()
		body()
	})
}

// Step transfers control to the coroutine and returns when it yields
// again (via Block) or finishes. It must only be called from engine
// context (inside an event function or before Run begins), and it may
// be called from a different goroutine than the previous Step as long
// as the calls never overlap. It reports whether the coroutine is
// still live afterwards.
func (c *Coro) Step() bool {
	if c.done {
		panic("sim: Step on finished coroutine " + c.Label)
	}
	c.next()
	return !c.done
}

// Block suspends the coroutine until the next Step. It must only be
// called from the coroutine's own body. The caller is responsible for
// having arranged a future Step (e.g. by scheduling an event that
// calls it); otherwise the simulation deadlocks, which the engine
// reports as a drained event queue with live coroutines.
func (c *Coro) Block() {
	if !c.yield(struct{}{}) {
		panic(stopped{})
	}
}

// stopped is the panic value that unwinds a stopped coroutine's body
// out of Block; Stop recovers it and nothing else.
type stopped struct{}

// Stop ends a started coroutine that has not finished, releasing its
// goroutine: a body parked in Block unwinds from there without running
// further, and one that never ran never starts. Done reports true
// afterwards. Stop is a no-op before Start and after the body
// finishes. A run that fails part-way stops its processors this way;
// otherwise each one would stay parked for the life of the process.
// Like Step, it must only be called from engine context.
func (c *Coro) Stop() {
	if c.stop == nil || c.done {
		return
	}
	defer func() {
		c.done = true
		if r := recover(); r != nil && r != (stopped{}) {
			panic(r)
		}
	}()
	c.stop()
}

// Done reports whether the coroutine's body has returned.
func (c *Coro) Done() bool { return c.done }

// WaitUntil blocks the coroutine until simulated time t. It schedules
// its own wake-up event (closure-free: the event holds the coroutine
// itself). Must be called from the coroutine's body.
func (c *Coro) WaitUntil(e *Engine, t Time) {
	e.StepAt(t, c)
	c.Block()
}

// Queue is a FIFO of blocked coroutines, the building block for locks,
// barriers and per-line wait lists. The zero value is an empty queue.
type Queue struct {
	waiters []*Coro
}

// Wait appends the coroutine and blocks it. Must be called from the
// coroutine's body.
func (q *Queue) Wait(c *Coro) {
	q.waiters = append(q.waiters, c)
	c.Block()
}

// Len returns the number of blocked coroutines.
func (q *Queue) Len() int { return len(q.waiters) }

// WakeOne resumes the head waiter at time now+delay. It returns false
// if the queue was empty. Must be called from engine context.
func (q *Queue) WakeOne(e *Engine, delay Time) bool {
	if len(q.waiters) == 0 {
		return false
	}
	c := q.waiters[0]
	q.waiters = q.waiters[1:]
	e.ScheduleStep(delay, c)
	return true
}

// WakeAll resumes every waiter. Each waiter i is resumed at
// now + delay + Time(i)*stagger, modeling serialized wake-up costs.
func (q *Queue) WakeAll(e *Engine, delay, stagger Time) int {
	n := len(q.waiters)
	for i, c := range q.waiters {
		e.ScheduleStep(delay+Time(i)*stagger, c)
	}
	q.waiters = nil
	return n
}
