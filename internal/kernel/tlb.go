package kernel

import (
	"fmt"

	"prism/internal/mem"
)

// softTLB is the per-node software TLB: a small direct-mapped cache in
// front of the `pt` map lookup that backs the hardware walker's view
// (Kernel.PTE). It is a host-performance structure only — it models no
// cycles and cannot change simulated results, because every page-table
// mutation goes through ptSet/ptDelete, which keep the TLB exactly
// coherent with the map: installs on write, invalidation on unmap.
// The explicit shootdown cases of the paper's protocol — page-out
// unmap, lazy migration's frame replacement, and mode conversion —
// all mutate the page table and therefore all pass through those two
// helpers; a stale translation can never be served.
//
// Hit/miss counters are exported through internal/metrics (component
// "tlb") and follow the machine-wide reset contract: ResetStats clears
// the counters, the TLB *contents* survive (they are structural state,
// like the page table itself). A lookup of an unmapped page counts as
// a miss: the counter measures map-lookup work avoided, not mapping
// coverage.
type softTLB struct {
	keys  []uint64 // mem.VPage.Key of each slot; 0 = empty slot
	ptes  []PTE
	Stats TLBStats
}

// TLBStats counts software-TLB activity.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// tlbSize is the number of direct-mapped slots (power of two). Small
// enough that per-node construction cost is trivial, large enough that
// the working set of hot pages fits.
const tlbSize = 512

func tlbIndex(vp mem.VPage) uint64 {
	return (uint64(vp.Page) ^ uint64(vp.Seg)<<6) & (tlbSize - 1)
}

func newSoftTLB() softTLB {
	return softTLB{keys: make([]uint64, tlbSize), ptes: make([]PTE, tlbSize)}
}

func (t *softTLB) lookup(vp mem.VPage) (PTE, bool) {
	i := tlbIndex(vp)
	if t.keys[i] == vp.Key() {
		t.Stats.Hits++
		return t.ptes[i], true
	}
	t.Stats.Misses++
	return PTE{}, false
}

func (t *softTLB) install(vp mem.VPage, pte PTE) {
	i := tlbIndex(vp)
	t.keys[i] = vp.Key()
	t.ptes[i] = pte
}

// invalidate drops vp's entry if present. A colliding entry for a
// different page is left alone — it is still coherent.
func (t *softTLB) invalidate(vp mem.VPage) {
	i := tlbIndex(vp)
	if t.keys[i] == vp.Key() {
		t.keys[i] = 0
	}
}

// TLBStats returns the software TLB's hit/miss counters.
func (k *Kernel) TLBStats() TLBStats { return k.tlb.Stats }

// CheckTLB verifies the no-stale-translation invariant: every resident
// software-TLB entry must be identical to the page table's. It is part
// of the machine-wide invariant sweep that runs after migration and
// mode-conversion scenarios.
func (k *Kernel) CheckTLB() error {
	for i, key := range k.tlb.keys {
		if key == 0 {
			continue
		}
		vp := mem.VPageFromKey(key)
		pte, ok := k.pt[vp]
		if !ok {
			return fmt.Errorf("kernel: node %d: TLB serves unmapped %v", k.node, vp)
		}
		if pte != k.tlb.ptes[i] {
			return fmt.Errorf("kernel: node %d: TLB stale for %v: %+v != %+v", k.node, vp, k.tlb.ptes[i], pte)
		}
	}
	return nil
}
