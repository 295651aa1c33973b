package sim

import "testing"

// BenchmarkEventQueueStep measures the dominant event shape end to
// end: schedule a closure-free step event, dispatch it, and take the
// coroutine round trip. One iteration = one push + one pop + one
// block/step handoff, 0 allocs/op. The event-queue and handoff costs
// alone are internal/benchsuite's EventQueue and CoroutineHandoff rows.
func BenchmarkEventQueueStep(b *testing.B) {
	e := NewEngine()
	c := NewCoro("bench")
	c.Start(func() {
		for {
			c.Block()
		}
	})
	c.Step() // run to the first Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleStep(1, c)
		e.RunUntilIdle()
	}
	b.StopTimer()
	c.Stop()
}
