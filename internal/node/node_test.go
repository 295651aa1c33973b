package node

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prism/internal/mem"
)

func TestTLBInsertLookup(t *testing.T) {
	tb := newTLB(4)
	for i := 0; i < 4; i++ {
		tb.insert(mem.VPage{Seg: 1, Page: uint32(i)}, mem.FrameID(i))
	}
	for i := 0; i < 4; i++ {
		f, ok := tb.lookup(mem.VPage{Seg: 1, Page: uint32(i)})
		if !ok || f != mem.FrameID(i) {
			t.Fatalf("lookup %d: %d %v", i, f, ok)
		}
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := newTLB(2)
	a := mem.VPage{Seg: 1, Page: 0}
	b := mem.VPage{Seg: 1, Page: 1}
	c := mem.VPage{Seg: 1, Page: 2}
	tb.insert(a, 0)
	tb.insert(b, 1)
	tb.lookup(a) // a is MRU
	tb.insert(c, 2)
	if _, ok := tb.lookup(b); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := tb.lookup(a); !ok {
		t.Error("MRU entry evicted")
	}
	if _, ok := tb.lookup(c); !ok {
		t.Error("new entry missing")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tb := newTLB(4)
	vp := mem.VPage{Seg: 2, Page: 9}
	tb.insert(vp, 7)
	tb.invalidate(vp)
	if _, ok := tb.lookup(vp); ok {
		t.Error("invalidated entry found")
	}
	tb.invalidate(vp) // idempotent
}

func TestTLBDeterministicEviction(t *testing.T) {
	// Two entries inserted in one "burst" have distinct clocks, so
	// eviction order is deterministic across runs.
	fill := func() []uint32 {
		tb := newTLB(3)
		for i := 0; i < 10; i++ {
			tb.insert(mem.VPage{Seg: 1, Page: uint32(i)}, mem.FrameID(i))
		}
		var present []uint32
		for i := 0; i < 10; i++ {
			if _, ok := tb.lookup(mem.VPage{Seg: 1, Page: uint32(i)}); ok {
				present = append(present, uint32(i))
			}
		}
		return present
	}
	a, b := fill(), fill()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("capacity violated: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

// mapTLB is the original map-backed TLB, kept as the oracle for the
// constant-time one: a hit restamps the entry with a fresh clock value,
// and a full insert scans every entry for the minimum stamp.
type mapTLB struct {
	cap     int
	entries map[mem.VPage]mem.FrameID
	lru     map[mem.VPage]uint64
	clock   uint64
}

func newMapTLB(capacity int) *mapTLB {
	return &mapTLB{
		cap:     capacity,
		entries: make(map[mem.VPage]mem.FrameID),
		lru:     make(map[mem.VPage]uint64),
	}
}

func (t *mapTLB) lookup(vp mem.VPage) (mem.FrameID, bool) {
	f, ok := t.entries[vp]
	if ok {
		t.clock++
		t.lru[vp] = t.clock
	}
	return f, ok
}

func (t *mapTLB) insert(vp mem.VPage, f mem.FrameID) {
	if len(t.entries) >= t.cap {
		var victim mem.VPage
		first := true
		var min uint64
		for e, c := range t.lru {
			if first || c < min || (c == min && (e.Seg < victim.Seg || e.Seg == victim.Seg && e.Page < victim.Page)) {
				victim, min, first = e, c, false
			}
		}
		delete(t.entries, victim)
		delete(t.lru, victim)
	}
	t.clock++
	t.entries[vp] = f
	t.lru[vp] = t.clock
}

func (t *mapTLB) invalidate(vp mem.VPage) {
	delete(t.entries, vp)
	delete(t.lru, vp)
}

func (t *mapTLB) exportState() TLBState {
	s := TLBState{Clock: t.clock}
	for vp, f := range t.entries {
		s.Entries = append(s.Entries, TLBEntryState{Seg: vp.Seg, Page: vp.Page, Frame: f, LRU: t.lru[vp]})
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := s.Entries[i], s.Entries[j]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		return a.Page < b.Page
	})
	return s
}

func (t *mapTLB) importState(s TLBState) {
	t.clock = s.Clock
	t.entries = make(map[mem.VPage]mem.FrameID, len(s.Entries))
	t.lru = make(map[mem.VPage]uint64, len(s.Entries))
	for _, e := range s.Entries {
		vp := mem.VPage{Seg: e.Seg, Page: e.Page}
		t.entries[vp] = e.Frame
		t.lru[vp] = e.LRU
	}
}

// evicted returns the pages in before but not in after.
func evicted(before, after TLBState) []mem.VPage {
	keep := make(map[mem.VPage]bool, len(after.Entries))
	for _, e := range after.Entries {
		keep[mem.VPage{Seg: e.Seg, Page: e.Page}] = true
	}
	var out []mem.VPage
	for _, e := range before.Entries {
		if vp := (mem.VPage{Seg: e.Seg, Page: e.Page}); !keep[vp] {
			out = append(out, vp)
		}
	}
	return out
}

// TestTLBMatchesMapOracle drives the constant-time TLB and the map
// oracle through identical seeded sequences of lookups, inserts of
// non-resident pages (as every caller does), invalidations and
// export/import round trips: hits, frames, evicted pages and exported
// state must agree after every step. Page universes run from a little
// over twice the capacity to over four times it, and half the imports
// are followed by an invalidation, so the index and the LRU list an
// import rebuilds are edited at once.
func TestTLBMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct{ capacity, pages int }{{1, 5}, {2, 7}, {64, 131}, {64, 4*64 + 9}} {
		capacity := tc.capacity
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := newTLB(capacity), newMapTLB(capacity)
			// Pages across two segments, so hits, misses and evictions
			// all occur.
			page := func() mem.VPage {
				n := rng.Intn(tc.pages)
				return mem.VPage{Seg: mem.VSID(1 + n%2), Page: uint32(n / 2)}
			}
			for step := 0; step < 2500; step++ {
				switch op := rng.Intn(16); {
				case op < 11:
					vp := page()
					gf, gok := got.lookup(vp)
					wf, wok := want.lookup(vp)
					if gok != wok || gf != wf {
						t.Fatalf("cap %d pages %d seed %d step %d: lookup %v = (%d, %v), oracle (%d, %v)", capacity, tc.pages, seed, step, vp, gf, gok, wf, wok)
					}
					if gok {
						break
					}
					f := mem.FrameID(rng.Intn(1 << 20))
					gb, wb := got.exportState(), want.exportState()
					got.insert(vp, f)
					want.insert(vp, f)
					ge, we := evicted(gb, got.exportState()), evicted(wb, want.exportState())
					if !reflect.DeepEqual(ge, we) {
						t.Fatalf("cap %d pages %d seed %d step %d: insert %v evicted %v, oracle %v", capacity, tc.pages, seed, step, vp, ge, we)
					}
				case op < 14:
					vp := page()
					got.invalidate(vp)
					want.invalidate(vp)
				default:
					// Cross-import: each side restores the other's export,
					// then, half the time, both drop a resident page.
					gs, ws := got.exportState(), want.exportState()
					if err := got.importState(ws); err != nil {
						t.Fatalf("cap %d pages %d seed %d step %d: import: %v", capacity, tc.pages, seed, step, err)
					}
					want.importState(gs)
					if es := ws.Entries; len(es) > 0 && rng.Intn(2) == 0 {
						e := es[rng.Intn(len(es))]
						vp := mem.VPage{Seg: e.Seg, Page: e.Page}
						got.invalidate(vp)
						want.invalidate(vp)
					}
				}
				if g, w := got.exportState(), want.exportState(); !reflect.DeepEqual(g, w) {
					t.Fatalf("cap %d pages %d seed %d step %d: state diverged:\n got %+v\nwant %+v", capacity, tc.pages, seed, step, g, w)
				}
			}
		}
	}
}

// TestTLBImportRejectsBadState checks that malformed TLB snapshots are
// rejected and that a rejected import leaves the TLB untouched.
func TestTLBImportRejectsBadState(t *testing.T) {
	entry := func(page uint32, lru uint64) TLBEntryState {
		return TLBEntryState{Seg: 1, Page: page, Frame: mem.FrameID(page), LRU: lru}
	}
	cases := map[string]TLBState{
		"over capacity":    {Clock: 9, Entries: []TLBEntryState{entry(1, 1), entry(2, 2), entry(3, 3)}},
		"duplicate page":   {Clock: 9, Entries: []TLBEntryState{entry(1, 1), entry(1, 2)}},
		"duplicate stamp":  {Clock: 9, Entries: []TLBEntryState{entry(1, 4), entry(2, 4)}},
		"stamp past clock": {Clock: 3, Entries: []TLBEntryState{entry(1, 4)}},
	}
	for name, bad := range cases {
		tb := newTLB(2)
		tb.insert(mem.VPage{Seg: 7, Page: 7}, 7)
		before := tb.exportState()
		if err := tb.importState(bad); err == nil {
			t.Errorf("%s: import accepted %+v", name, bad)
		}
		if got := tb.exportState(); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: rejected import changed the TLB: %+v", name, got)
		}
	}
}

// BenchmarkTLBHit measures a hit that misses the last-used slot: the
// full TLB is walked round-robin.
func BenchmarkTLBHit(b *testing.B) {
	const capacity = 64
	tb := newTLB(capacity)
	for i := 0; i < capacity; i++ {
		tb.insert(mem.VPage{Seg: 1, Page: uint32(i)}, mem.FrameID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.lookup(mem.VPage{Seg: 1, Page: uint32(i % capacity)}); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkTLBMissEvict measures a miss plus the LRU eviction that
// makes room: cycling over twice the capacity misses every time.
func BenchmarkTLBMissEvict(b *testing.B) {
	const capacity = 64
	tb := newTLB(capacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vp := mem.VPage{Seg: 1, Page: uint32(i % (2 * capacity))}
		if _, ok := tb.lookup(vp); ok {
			b.Fatal("hit")
		}
		tb.insert(vp, mem.FrameID(i))
	}
}

func TestSyncSegmentBytes(t *testing.T) {
	g := mem.DefaultGeometry
	want := uint64((1<<15 + 1<<12) * 64)
	if SyncSegmentBytes(g) != want {
		t.Fatalf("sync segment %d, want %d", SyncSegmentBytes(g), want)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(mem.DefaultGeometry)
	if cfg.Procs != 4 {
		t.Errorf("procs %d, want 4 (the paper's SMP node)", cfg.Procs)
	}
	if cfg.L1.Size != 8<<10 || cfg.L2.Size != 32<<10 {
		t.Errorf("caches %d/%d, want 8K/32K (§4.2)", cfg.L1.Size, cfg.L2.Size)
	}
	if err := cfg.L1.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Error(err)
	}
}
