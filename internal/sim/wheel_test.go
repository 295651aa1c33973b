package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWheelDifferentialSchedule runs randomized schedules through Run
// and checks every dispatched (at, seq) against the container/heap
// oracle. Unlike the tests in heap_test.go, the clock advances while
// events wait: handlers schedule from inside Run at delays of 0–2,
// under 200, around the wheel's horizon and up to three horizons out;
// a restored backlog ties with later live pushes at the same times; and
// Run(limit) slices end inside and beyond the horizon.
func TestWheelDifferentialSchedule(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refHeap{}
		ok := true
		fail := func(format string, args ...any) {
			if ok {
				t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			}
			ok = false
		}
		delay := func() Time {
			switch r.Intn(4) {
			case 0:
				return Time(r.Intn(3))
			case 1:
				return Time(r.Intn(200))
			case 2:
				return wheelSize - 2 + Time(r.Intn(4))
			default:
				return Time(r.Intn(3*wheelSize + 1))
			}
		}

		budget := 3000
		dispatched := 0
		var schedule func(at Time)
		fire := func(now Time, seq uint64) {
			dispatched++
			if ref.Len() == 0 {
				fail("dispatched (%d,%d) with the reference empty", now, seq)
				return
			}
			want := heap.Pop(ref).(refKey)
			if got := (refKey{at: now, seq: seq}); got != want || e.Now() != now {
				fail("dispatched (%d,%d) at clock %d, reference (%d,%d)", now, seq, e.Now(), want.at, want.seq)
			}
			for k := r.Intn(3); k > 0 && budget > 0; k-- {
				schedule(e.Now() + delay())
			}
		}
		schedule = func(at Time) {
			budget--
			seq := e.seq + 1
			switch r.Intn(3) {
			case 0:
				e.At(at, func() { fire(e.Now(), seq) })
			case 1:
				e.CallAt(at, func(now Time) { fire(now, seq) })
			default:
				e.AtEvent(at, handlerFunc(func(now Time) { fire(now, seq) }))
			}
			heap.Push(ref, refKey{at: at, seq: seq})
		}

		// A restored backlog holds seqs 1..restored around the restored
		// clock; half the live pushes that follow land on its times.
		const restored = 200
		now0 := Time(r.Intn(5 * wheelSize))
		e.RestoreClock(now0, restored)
		var backlog []Time
		for seq := uint64(1); seq <= restored; seq++ {
			at := now0 + delay()
			backlog = append(backlog, at)
			e.RestoreEvent(at, seq, nil, handlerFunc(func(now Time) { fire(now, seq) }))
			heap.Push(ref, refKey{at: at, seq: seq})
		}
		for i := 0; i < 100; i++ {
			if r.Intn(2) == 0 {
				schedule(backlog[r.Intn(len(backlog))])
			} else {
				schedule(now0 + delay())
			}
		}

		for ok && e.Pending() > 0 {
			var limit Time
			switch r.Intn(3) {
			case 0:
				limit = e.Now() + Time(r.Intn(wheelSize))
			case 1:
				limit = e.Now() + wheelSize + Time(r.Intn(2*wheelSize))
			default:
				limit = Forever
			}
			before := dispatched
			if n := e.Run(limit); n != dispatched-before {
				fail("Run(%d) reported %d events, dispatched %d", limit, n, dispatched-before)
			}
			if ref.Len() > 0 && (*ref)[0].at <= limit {
				fail("Run(%d) returned with (%d,%d) due", limit, (*ref)[0].at, (*ref)[0].seq)
			}
			if e.Pending() != ref.Len() {
				fail("Pending %d, reference holds %d", e.Pending(), ref.Len())
			}
			// Live pushes from outside Run, between slices.
			for k := r.Intn(4); k > 0 && budget > 0; k-- {
				schedule(e.Now() + delay())
			}
		}
		if ok && ref.Len() != 0 {
			fail("queue drained with %d reference events left", ref.Len())
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type nopHandler struct{}

func (*nopHandler) OnEvent(Time) {}

// TestForEachEventKinds: ForEachEvent reports a coroutine step, a
// handler and both closure kinds as coro, handler and opaque, from the
// wheel and from the far heap alike.
func TestForEachEventKinds(t *testing.T) {
	e := NewEngine()
	c := NewCoro("k")
	h := &nopHandler{}
	for _, at := range []Time{5, wheelSize + 5} {
		e.StepAt(at, c)
		e.AtEvent(at, h)
		e.At(at, func() {})
		e.CallAt(at, func(Time) {})
	}
	if e.wheelN != 4 || len(e.far) != 4 {
		t.Fatalf("wheel holds %d, far heap %d; want 4 and 4", e.wheelN, len(e.far))
	}

	type desc struct {
		at     Time
		coro   *Coro
		h      EventHandler
		opaque bool
	}
	got := map[uint64]desc{}
	e.ForEachEvent(func(at Time, seq uint64, coro *Coro, h EventHandler, opaque bool) {
		got[seq] = desc{at, coro, h, opaque}
	})
	want := map[uint64]desc{
		1: {5, c, nil, false}, 2: {5, nil, h, false}, 3: {5, nil, nil, true}, 4: {5, nil, nil, true},
		5: {wheelSize + 5, c, nil, false}, 6: {wheelSize + 5, nil, h, false},
		7: {wheelSize + 5, nil, nil, true}, 8: {wheelSize + 5, nil, nil, true},
	}
	if len(got) != len(want) {
		t.Fatalf("reported %d events, want %d", len(got), len(want))
	}
	for seq, w := range want {
		if got[seq] != w {
			t.Errorf("seq %d reported %+v, want %+v", seq, got[seq], w)
		}
	}
}
