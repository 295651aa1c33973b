package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"prism/internal/mem"
)

// filterGeom gives 16 lines per page, so a handful of frames makes a
// line universe several times larger than one cache.
var filterGeom = mem.Geometry{PageSize: 1024, LineSize: 64}

// sharedCaches builds n 32-line caches that share one filter.
func sharedCaches(n int) ([]*Cache, *Filter) {
	cfg := Config{Size: 2 << 10, Ways: 4, LineSize: 64}
	f := NewFilter(n*cfg.Size/cfg.LineSize, cfg.LineSize)
	cs := make([]*Cache, n)
	for i := range cs {
		cs[i] = New(fmt.Sprintf("c%d", i), cfg)
		cs[i].ShareFilter(f)
	}
	return cs, f
}

// TestFilterMatchesRecount drives four caches that share one filter
// through seeded random fills, state changes, invalidations, frame
// invalidations, flushes and snapshot imports. After every step each
// bucket must equal a recount of the caches' valid lines, and a zero
// bucket must mean that no cache holds the line.
func TestFilterMatchesRecount(t *testing.T) {
	const frames = 8 // 128 lines, four times one cache
	states := []State{Invalid, Shared, Exclusive, Modified}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		caches, f := sharedCaches(4)
		line := func() mem.PAddr {
			return mem.NewPAddr(filterGeom, mem.FrameID(rng.Intn(frames)), rng.Intn(filterGeom.LinesPerPage())*filterGeom.LineSize)
		}
		var saved []CacheState
		for step := 0; step < 3000; step++ {
			c := caches[rng.Intn(len(caches))]
			var op string
			switch k := rng.Intn(100); {
			case k < 40:
				op = "insert"
				c.Insert(line(), states[1+rng.Intn(3)])
			case k < 43:
				op = "insert Invalid"
				c.Insert(line(), Invalid)
			case k < 63:
				op = "set state"
				c.SetState(line(), states[rng.Intn(len(states))])
			case k < 78:
				op = "invalidate"
				c.Invalidate(line())
			case k < 86:
				op = "invalidate frame"
				c.InvalidateFrame(filterGeom, mem.FrameID(rng.Intn(frames)))
			case k < 88:
				op = "flush"
				c.Flush()
			case k < 94:
				op = "export"
				saved = append(saved, c.ExportState())
			default:
				op = "import"
				if len(saved) > 0 {
					if err := c.ImportState(saved[rng.Intn(len(saved))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := f.Check(caches...); err != nil {
				t.Fatalf("seed %d step %d (%s on %s): %v", seed, step, op, c.Name(), err)
			}
			for fr := 0; fr < frames; fr++ {
				for ln := 0; ln < filterGeom.LinesPerPage(); ln++ {
					pa := mem.NewPAddr(filterGeom, mem.FrameID(fr), ln*filterGeom.LineSize)
					if f.MayHold(pa) {
						continue
					}
					for _, h := range caches {
						if st := h.Probe(pa); st != Invalid {
							t.Fatalf("seed %d step %d (%s): bucket of %#x is zero but %s holds it in %v", seed, step, op, uint64(pa), h.Name(), st)
						}
					}
				}
			}
		}
	}
}

// TestFilterCheckReportsDrift plants a counter that disagrees with the
// caches, and an L1 line its L2 lacks: each check names the fault in
// one line.
func TestFilterCheckReportsDrift(t *testing.T) {
	caches, f := sharedCaches(2)
	caches[0].Insert(0x40, Shared)
	if err := f.Check(caches...); err != nil {
		t.Fatal(err)
	}
	f.add(0x7) // a line no cache holds
	err := f.Check(caches...)
	if err == nil || !strings.Contains(err.Error(), "filter bucket") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("drifted bucket: got %v, want a one-line filter error", err)
	}
	if err := f.Check(caches[0]); err == nil {
		t.Fatal("a recount that leaves out an attached cache passed")
	}
	if err := f.Check(New("other", Config{Size: 2 << 10, Ways: 4, LineSize: 64})); err == nil {
		t.Fatal("a cache not attached to the filter passed its check")
	}

	l1 := New("l1", Config{Size: 1 << 10, Ways: 1, LineSize: 64})
	l1.Insert(0x40, Shared)
	if err := l1.CheckIncludedIn(caches[0]); err != nil {
		t.Fatal(err)
	}
	l1.Insert(0x80, Modified)
	err = l1.CheckIncludedIn(caches[0])
	if err == nil || !strings.Contains(err.Error(), "0x80") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("L1 line missing from L2: got %v, want a one-line error naming 0x80", err)
	}
}

func TestNewFilterSizing(t *testing.T) {
	for _, c := range []struct{ lines, buckets int }{{1, 8}, {128, 1024}, {512, 4096}, {2048, 16384}, {MaxFilterLines, 1 << 19}} {
		if got := len(NewFilter(c.lines, 64).counts); got != c.buckets {
			t.Errorf("NewFilter(%d): %d buckets, want %d", c.lines, got, c.buckets)
		}
	}
	for _, bad := range []struct{ lines, lineSize int }{{0, 64}, {MaxFilterLines + 1, 64}, {16, 48}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFilter(%d, %d) did not panic", bad.lines, bad.lineSize)
				}
			}()
			NewFilter(bad.lines, bad.lineSize)
		}()
	}
}

// mayHold keeps the benchmarked filter query from being optimized away.
var mayHold bool

// BenchmarkFilterMissInsert is BenchmarkAccessMissInsert on a cache
// that reports to a filter, plus the snoop's filter query per miss.
func BenchmarkFilterMissInsert(b *testing.B) {
	c := New("b", Config{Size: 8 << 10, Ways: 4, LineSize: 64})
	f := NewFilter(4*c.Sets()*c.Ways(), 64)
	c.ShareFilter(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pa := mem.PAddr(i*64) & 0xFFFFF
		if c.Access(pa, false) == Miss {
			mayHold = f.MayHold(pa)
			c.Insert(pa, Shared)
		}
	}
}
