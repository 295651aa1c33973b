package kernel

import (
	"testing"

	"prism/internal/mem"
	"prism/internal/pit"
)

func vp(seg mem.VSID, page uint32) mem.VPage { return mem.VPage{Seg: seg, Page: page} }

// TestTLBShootdownOnUnmap is the basic stale-translation regression:
// after ptDelete (page-out, migration's frame replacement, and mode
// conversion all funnel through it), PTE must miss — never serve the
// dead frame.
func TestTLBShootdownOnUnmap(t *testing.T) {
	k := mkKernel(t, 8)
	v := vp(2, 7)
	k.ptSet(v, PTE{Frame: 3, Mode: pit.ModeLANUMA})
	if pte, ok := k.PTE(v); !ok || pte.Frame != 3 {
		t.Fatalf("mapped lookup: %+v %v", pte, ok)
	}
	if k.tlb.Stats.Hits == 0 {
		t.Fatal("ptSet did not write-allocate the TLB")
	}
	k.ptDelete(v)
	if _, ok := k.PTE(v); ok {
		t.Fatal("stale translation served after unmap")
	}
	if err := k.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// TestTLBShootdownOnRemap covers migration's frame replacement: the
// same virtual page rebound to a new frame (promoteHome's ptSet) must
// be served with the new frame immediately.
func TestTLBShootdownOnRemap(t *testing.T) {
	k := mkKernel(t, 8)
	v := vp(2, 9)
	k.ptSet(v, PTE{Frame: 1, Mode: pit.ModeSCOMA})
	k.PTE(v) // warm the TLB
	k.ptSet(v, PTE{Frame: 5, Mode: pit.ModeLANUMA})
	if pte, ok := k.PTE(v); !ok || pte.Frame != 5 || pte.Mode != pit.ModeLANUMA {
		t.Fatalf("remap served stale translation: %+v %v", pte, ok)
	}
	if err := k.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// TestTLBCollision checks the direct-mapped index: two pages that share
// a slot evict each other without ever mixing translations, and
// invalidating one leaves a colliding resident entry alone.
func TestTLBCollision(t *testing.T) {
	k := mkKernel(t, 8)
	a, b := vp(2, 1), vp(2, 1+tlbSize)
	if tlbIndex(a) != tlbIndex(b) {
		t.Fatalf("test pages do not collide: %d vs %d", tlbIndex(a), tlbIndex(b))
	}
	k.ptSet(a, PTE{Frame: 1})
	k.ptSet(b, PTE{Frame: 2}) // evicts a's slot
	if pte, ok := k.PTE(a); !ok || pte.Frame != 1 {
		t.Fatalf("collision victim lookup: %+v %v", pte, ok)
	}
	// a's lookup reinstalled it; invalidating b must not touch a's slot.
	k.tlb.invalidate(b)
	if pte, ok := k.tlb.lookup(a); !ok || pte.Frame != 1 {
		t.Fatalf("invalidate hit a colliding entry: %+v %v", pte, ok)
	}
	// b stays in pt but drops from the TLB — still coherent.
	if err := k.CheckTLB(); err != nil {
		t.Fatal(err)
	}
}

// TestTLBResetContract pins the measurement-reset semantics: ResetStats
// clears the hit/miss counters, while TLB contents — structural state,
// like the page table they cache — survive and keep serving hits.
func TestTLBResetContract(t *testing.T) {
	k := mkKernel(t, 8)
	v := vp(2, 3)
	k.ptSet(v, PTE{Frame: 2, Mode: pit.ModeSCOMA})
	k.PTE(v)
	k.PTE(vp(2, 4)) // unmapped: counts as a miss
	if k.tlb.Stats.Hits == 0 || k.tlb.Stats.Misses == 0 {
		t.Fatalf("expected activity before reset: %+v", k.tlb.Stats)
	}
	k.ResetStats()
	if k.tlb.Stats != (TLBStats{}) {
		t.Fatalf("counters survived ResetStats: %+v", k.tlb.Stats)
	}
	if pte, ok := k.PTE(v); !ok || pte.Frame != 2 {
		t.Fatalf("TLB contents lost across reset: %+v %v", pte, ok)
	}
	if k.tlb.Stats.Hits != 1 {
		t.Fatalf("post-reset lookup should hit the surviving entry: %+v", k.tlb.Stats)
	}
}

// BenchmarkPTEMiss forces the direct-mapped slot to thrash between two
// colliding pages: every lookup misses, falls back to the map, and
// reinstalls — the translation path a cold (or shot-down) TLB pays.
// The hit is internal/benchsuite's KernelPTEHit row.
func BenchmarkPTEMiss(b *testing.B) {
	k := mkKernel(b, 8)
	pages := [2]mem.VPage{vp(2, 1), vp(2, 1+tlbSize)}
	k.ptSet(pages[0], PTE{Frame: 1})
	k.ptSet(pages[1], PTE{Frame: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := k.PTE(pages[i&1]); !ok {
			b.Fatal("lost mapping")
		}
	}
}
