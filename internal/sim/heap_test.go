package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refKey mirrors the engine's ordering key.
type refKey struct {
	at  Time
	seq uint64
}

// refHeap is a container/heap reference implementation with the exact
// (time, seq) order the engine promises — the oracle the engine's
// timing wheel and far heap are differentially tested against.
type refHeap []refKey

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refKey)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// pop removes and returns the engine's earliest event without
// dispatching it or advancing the clock.
func (e *Engine) pop() event {
	_, s := e.head()
	return e.take(s)
}

// TestHeapDifferentialRandom drives the engine's push/pop directly
// against the container/heap reference with randomized interleaved
// pushes and pops, including deliberate same-instant bursts. A quarter
// of the pushes straddle the wheel's horizon, so both the wheel and
// the far heap hold events.
func TestHeapDifferentialRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		heap.Init(ref)

		for op := 0; op < 2000; op++ {
			if r.Intn(3) > 0 || ref.Len() == 0 {
				// Push. Small time ranges force heavy same-instant
				// collisions so the seq tie-break is actually exercised.
				at := Time(r.Intn(16))
				if r.Intn(4) == 0 {
					at += wheelSize - 8
				}
				e.push(at, funcEvent(func() {}))
				heap.Push(ref, refKey{at: at, seq: e.seq})
			} else {
				got := e.pop()
				want := heap.Pop(ref).(refKey)
				if got.at != want.at || got.seq != want.seq {
					t.Logf("seed %d: pop (%d,%d), reference (%d,%d)", seed, got.at, got.seq, want.at, want.seq)
					return false
				}
			}
		}
		for ref.Len() > 0 {
			got := e.pop()
			want := heap.Pop(ref).(refKey)
			if got.at != want.at || got.seq != want.seq {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHeapDifferentialRunLimit runs full randomized schedules through
// Run(limit) in several slices and checks that the observed dispatch
// order matches the container/heap reference exactly, across limit
// boundaries (events exactly at the limit run; later ones wait).
func TestHeapDifferentialRunLimit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		heap.Init(ref)

		var fired []refKey
		n := 300
		for i := 0; i < n; i++ {
			at := Time(r.Intn(50))
			seq := e.seq + 1 // the sequence number push will assign
			e.CallAt(at, func(now Time) {
				fired = append(fired, refKey{at: now, seq: seq})
			})
			heap.Push(ref, refKey{at: at, seq: seq})
		}

		// Drain in randomized Run(limit) slices, ending with a full run.
		limits := []Time{Time(r.Intn(20)), Time(20 + r.Intn(20)), Forever}
		for _, lim := range limits {
			e.Run(lim)
		}

		if len(fired) != n {
			return false
		}
		for i := range fired {
			want := heap.Pop(ref).(refKey)
			if fired[i] != want {
				t.Logf("seed %d: position %d fired (%d,%d), reference (%d,%d)",
					seed, i, fired[i].at, fired[i].seq, want.at, want.seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHeapAllVariantsInterleaved checks that the four scheduling
// variants share one (time, seq) order: a mixed same-instant burst
// fires in exact scheduling order regardless of payload kind.
func TestHeapAllVariantsInterleaved(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(i int) { got = append(got, i) }

	c := NewCoro("v")
	c.Start(func() {
		for {
			rec(-1) // placeholder patched by order below
			c.Block()
		}
	})
	// Prime the coroutine to its first Block so stepping records.
	// (The first resume runs rec(-1) once; drop it from the check.)
	e.Schedule(0, func() { c.Step() })
	e.RunUntilIdle()
	got = nil

	h := handlerFunc(func(now Time) { rec(2) })
	e.Schedule(5, func() { rec(0) })
	e.ScheduleCall(5, func(now Time) { rec(1) })
	e.ScheduleEvent(5, h)
	e.ScheduleStep(5, c) // records -1 via the coroutine body
	e.Schedule(5, func() { rec(4) })
	e.RunUntilIdle()

	want := []int{0, 1, 2, -1, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// handlerFunc adapts a func to EventHandler for tests.
type handlerFunc func(now Time)

func (f handlerFunc) OnEvent(now Time) { f(now) }
