package sim

import "testing"

// BenchmarkEventQueue measures raw schedule+dispatch throughput. The
// steady-state path — push into the specialized heap, pop, dispatch a
// static closure — must report 0 allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%64), func() {})
		if e.Pending() > 1024 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// BenchmarkEventQueueStep measures the dominant event shape end to
// end: schedule a closure-free step event, dispatch it, and take the
// coroutine round trip. One iteration = one push + one pop + one
// block/step handoff, 0 allocs/op.
func BenchmarkEventQueueStep(b *testing.B) {
	e := NewEngine()
	c := NewCoro("bench")
	c.Start(func() {
		for {
			c.Block()
		}
	})
	e.ScheduleStep(0, c)
	e.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleStep(1, c)
		e.RunUntilIdle()
	}
}

// BenchmarkCoroutineHandoff measures one block/step round trip, two
// runtime coroutine switches; the steady state must be 0 allocs/op.
func BenchmarkCoroutineHandoff(b *testing.B) {
	e := NewEngine()
	c := NewCoro("bench")
	c.Start(func() {
		for {
			c.Block()
		}
	})
	// Prime to the first block.
	e.Schedule(0, func() { c.Step() })
	e.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
