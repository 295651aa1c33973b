package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if n := e.RunUntilIdle(); n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(0, rec)
	e.RunUntilIdle()
	if depth != 50 {
		t.Fatalf("depth %d, want 50", depth)
	}
	if e.Now() != 49 {
		t.Fatalf("time %d, want 49", e.Now())
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { ran++ })
	}
	e.Run(35)
	if ran != 3 {
		t.Fatalf("ran %d events before limit, want 3", ran)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending %d, want 7", e.Pending())
	}
	e.RunUntilIdle()
	if ran != 10 {
		t.Fatalf("ran %d total, want 10", ran)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineRandomOrderProperty(t *testing.T) {
	// Property: regardless of insertion order, events fire in
	// non-decreasing time order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < 100; i++ {
			at := Time(r.Intn(1000))
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.RunUntilIdle()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoroutineHandoff(t *testing.T) {
	e := NewEngine()
	c := NewCoro("test")
	var trace []string
	c.Start(func() {
		trace = append(trace, "a")
		c.WaitUntil(e, 100)
		trace = append(trace, "b")
		c.WaitUntil(e, 200)
		trace = append(trace, "c")
	})
	e.Schedule(0, func() { c.Step() })
	e.RunUntilIdle()
	if !c.Done() {
		t.Fatal("coroutine not done")
	}
	if len(trace) != 3 || trace[0] != "a" || trace[2] != "c" {
		t.Fatalf("trace %v", trace)
	}
	if e.Now() != 200 {
		t.Fatalf("time %d, want 200", e.Now())
	}
}

func TestCoroutineStepAfterDonePanics(t *testing.T) {
	e := NewEngine()
	c := NewCoro("t")
	c.Start(func() {})
	e.Schedule(0, func() { c.Step() })
	e.RunUntilIdle()
	defer func() {
		if r := recover(); r != "sim: Step on finished coroutine t" {
			t.Errorf("Step on done coroutine recovered %v", r)
		}
	}()
	c.Step()
}

// TestCoroutineBodyPanic: a panic in the body re-panics out of the
// Step that resumed it — through Engine.Run when an event stepped it —
// with the body's own value, and the coroutine is done afterwards.
func TestCoroutineBodyPanic(t *testing.T) {
	e := NewEngine()
	c := NewCoro("p")
	c.Start(func() {
		c.WaitUntil(e, 10)
		panic("boom")
	})
	e.ScheduleStep(0, c)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Run recovered %v, want the body's panic value", r)
			}
		}()
		e.RunUntilIdle()
	}()
	if !c.Done() {
		t.Fatal("coroutine not done after its body panicked")
	}
	if e.Now() != 10 {
		t.Fatalf("panic surfaced at t=%d, want 10", e.Now())
	}
	// The engine is usable again: Run released its guard.
	ran := false
	e.Schedule(1, func() { ran = true })
	e.RunUntilIdle()
	if !ran {
		t.Fatal("engine did not run after a coroutine panic")
	}
}

// TestCoroutineStepAcrossGoroutines: Step may be called from a
// different goroutine each time, in sequence, never concurrently — a
// machine can be built on one goroutine and run on another.
func TestCoroutineStepAcrossGoroutines(t *testing.T) {
	c := NewCoro("x")
	var trace []int
	c.Start(func() {
		for i := 0; i < 3; i++ {
			trace = append(trace, i)
			c.Block()
		}
	})
	for i := 0; i < 4; i++ {
		live := make(chan bool)
		go func() { live <- c.Step() }()
		if got, want := <-live, i < 3; got != want {
			t.Fatalf("step %d reported live=%v, want %v", i, got, want)
		}
	}
	if !c.Done() || len(trace) != 3 || trace[2] != 2 {
		t.Fatalf("done=%v trace=%v", c.Done(), trace)
	}
}

// TestCoroutineStop: Stop on a parked coroutine unwinds its body from
// Block, so no code after the Block runs, marks it done and releases
// its goroutine; a started coroutine that never ran ends without
// running, and Stop is a no-op before Start and after the body returns.
func TestCoroutineStop(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()

	parked := NewCoro("parked")
	after := false
	parked.Start(func() {
		parked.WaitUntil(e, 10)
		after = true
	})
	if !parked.Step() {
		t.Fatal("coroutine finished before its Block")
	}
	unstarted := NewCoro("unstarted")
	ran := false
	unstarted.Start(func() { ran = true })

	parked.Stop()
	unstarted.Stop()
	if after || ran {
		t.Fatalf("stopped bodies ran on: after Block %v, unstarted %v", after, ran)
	}
	if !parked.Done() || !unstarted.Done() {
		t.Fatal("stopped coroutines not done")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Stop, %d before the coroutines started", n, base)
	}

	// Before Start, Stop leaves the coroutine usable; after the body
	// returns, it changes nothing.
	c := NewCoro("late")
	c.Stop()
	c.Start(func() {})
	if c.Done() || c.Step() || !c.Done() {
		t.Fatal("Stop before Start disturbed the coroutine")
	}
	c.Stop()
	if !c.Done() {
		t.Fatal("Stop after the body returned changed Done")
	}
}

func TestQueueWakeOneFIFO(t *testing.T) {
	e := NewEngine()
	var q Queue
	var order []int
	mk := func(id int) *Coro {
		c := NewCoro("w")
		c.Start(func() {
			q.Wait(c)
			order = append(order, id)
		})
		e.Schedule(0, func() { c.Step() })
		return c
	}
	for i := 0; i < 3; i++ {
		mk(i)
	}
	e.Schedule(10, func() { q.WakeOne(e, 0) })
	e.Schedule(20, func() { q.WakeOne(e, 0) })
	e.Schedule(30, func() { q.WakeOne(e, 0) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order %v, want FIFO", order)
	}
}

func TestQueueWakeAllStagger(t *testing.T) {
	e := NewEngine()
	var q Queue
	var wakeTimes []Time
	for i := 0; i < 4; i++ {
		c := NewCoro("w")
		c.Start(func() {
			q.Wait(c)
			wakeTimes = append(wakeTimes, e.Now())
		})
		e.Schedule(0, func() { c.Step() })
	}
	e.Schedule(100, func() {
		if n := q.WakeAll(e, 10, 5); n != 4 {
			t.Errorf("woke %d, want 4", n)
		}
	})
	e.RunUntilIdle()
	want := []Time{110, 115, 120, 125}
	for i, w := range want {
		if wakeTimes[i] != w {
			t.Fatalf("wake times %v, want %v", wakeTimes, want)
		}
	}
}

func TestQueueWakeOneEmpty(t *testing.T) {
	e := NewEngine()
	var q Queue
	if q.WakeOne(e, 0) {
		t.Error("WakeOne on empty queue returned true")
	}
}

func TestResourceUncontended(t *testing.T) {
	var r Resource
	if g := r.Acquire(100, 10); g != 100 {
		t.Fatalf("grant %d, want 100", g)
	}
	if r.FreeAt() != 110 {
		t.Fatalf("freeAt %d, want 110", r.FreeAt())
	}
}

func TestResourceQueuing(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	if g := r.Acquire(5, 10); g != 10 {
		t.Fatalf("second grant %d, want 10", g)
	}
	if g := r.Acquire(50, 10); g != 50 {
		t.Fatalf("idle grant %d, want 50", g)
	}
	if r.Grants != 3 || r.BusyTotal != 30 {
		t.Fatalf("stats %+v", r)
	}
	if r.WaitTotal != 5 {
		t.Fatalf("wait total %d, want 5", r.WaitTotal)
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 50)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("utilization %f, want 0.5", u)
	}
	r.Reset()
	if r.BusyTotal != 0 || r.Grants != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestResourceMonotoneProperty(t *testing.T) {
	// Property: grants never overlap: each grant >= previous grant's end.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var res Resource
		var lastEnd Time
		at := Time(0)
		for i := 0; i < 200; i++ {
			at += Time(r.Intn(20))
			busy := Time(r.Intn(15))
			g := res.Acquire(at, busy)
			if g < at || g < lastEnd {
				return false
			}
			lastEnd = g + busy
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
