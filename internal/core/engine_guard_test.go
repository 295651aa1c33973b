package core

import "testing"

// TestEngineGuardBothModes drives a machine's one engine in both ways
// the sim package forbids, reentrant Run and Run from a second
// goroutine, and pins the exact panic text a caller sees.
func TestEngineGuardBothModes(t *testing.T) {
	const msg = "sim: Engine.Run entered twice (reentrant or concurrent use; one engine per goroutine)"
	expectPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			if s, ok := r.(string); !ok || s != msg {
				t.Fatalf("panic %q, want %q", r, msg)
			}
		}()
		f()
	}
	newMachine := func(t *testing.T) *Machine {
		t.Helper()
		m, err := NewMachine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("sequential_reentrant", func(t *testing.T) {
		m := newMachine(t)
		m.E.Schedule(0, func() { m.E.Run(0) })
		expectPanic(t, func() { m.E.Run(0) })
	})

	t.Run("sequential_cross_goroutine", func(t *testing.T) {
		m := newMachine(t)
		block := make(chan struct{})
		entered := make(chan struct{})
		m.E.Schedule(0, func() {
			close(entered)
			<-block
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			m.E.Run(0)
		}()
		<-entered
		defer func() {
			close(block)
			<-done
		}()
		expectPanic(t, func() { m.E.Run(0) })
	})
}
