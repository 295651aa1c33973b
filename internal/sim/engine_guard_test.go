package sim

import (
	"testing"
)

// TestRunReentrantPanics: calling Run from inside an event must fail
// loudly rather than corrupt the heap.
func TestRunReentrantPanics(t *testing.T) {
	e := NewEngine()
	var recovered interface{}
	e.Schedule(0, func() {
		defer func() { recovered = recover() }()
		e.Run(Forever)
	})
	e.RunUntilIdle()
	if recovered != engineMisuseMsg {
		t.Fatalf("reentrant Run recovered %v, want %q", recovered, engineMisuseMsg)
	}
}

// TestRunConcurrentPanics enforces the one-engine-per-goroutine
// invariant: a second goroutine entering Run while the engine is live
// panics deterministically instead of racing on the event queue.
func TestRunConcurrentPanics(t *testing.T) {
	e := NewEngine()
	entered := make(chan struct{})
	release := make(chan struct{})
	e.Schedule(0, func() {
		close(entered)
		<-release
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.RunUntilIdle()
	}()

	<-entered
	func() {
		defer func() {
			if r := recover(); r != engineMisuseMsg {
				t.Errorf("concurrent Run recovered %v, want %q", r, engineMisuseMsg)
			}
		}()
		e.Run(Forever)
	}()
	close(release)
	<-done
}
