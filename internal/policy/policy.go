// Package policy implements the page-mode selection policies of §4.2:
// the static SCOMA / LANUMA / SCOMA-70 configurations and the three
// adaptive run-time policies (Dyn-FCFS, Dyn-Util, Dyn-LRU) that blend
// S-COMA and LA-NUMA frames once the page cache fills.
//
// A policy is consulted by the kernel on each *client* page fault for
// a globally shared page whose mode is not already pinned. Home-node
// pages always use real frames and are outside policy control, as are
// pages the kernel has converted to LA-NUMA mode (the "sticky" mode of
// the adaptive policies).
package policy

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/pit"
)

// View is the kernel-provided state a policy may consult.
type View interface {
	// ClientSCOMAFrames is the number of client (non-home) S-COMA
	// frames currently allocated on this node.
	ClientSCOMAFrames() int
	// PageCacheCap is this node's client page-cache capacity in
	// frames; 0 means unlimited.
	PageCacheCap() int
	// LRUVictim returns the least-recently-used client S-COMA frame
	// that is safe to evict (no lines in Transit, no fault in
	// progress), or ok=false if none qualifies. The LRU considers
	// only accesses from local processors (§4.2).
	LRUVictim() (mem.FrameID, bool)
	// MostInvalidVictim returns the client S-COMA frame with the
	// largest number of fine-grain tags in Invalid state, skipping
	// frames with tags in Transit (§4.2 Dyn-Util), or ok=false.
	MostInvalidVictim() (mem.FrameID, bool)
}

// Decision is a policy's answer for one client page fault.
type Decision struct {
	// Mode is the frame mode for the faulting page: ModeSCOMA or
	// ModeLANUMA.
	Mode pit.Mode
	// Victim, when HasVictim, is a client S-COMA frame to page out
	// before allocating.
	Victim    mem.FrameID
	HasVictim bool
	// ConvertVictim pins the victim's page to LA-NUMA mode at this
	// node, so its future faults here use imaginary frames.
	ConvertVictim bool
}

// Policy selects page-frame modes at client page-fault time.
type Policy interface {
	Name() string
	Choose(v View, g mem.GPage) Decision
}

// full reports whether the page cache is at (or beyond) capacity.
func full(v View) bool {
	cap := v.PageCacheCap()
	return cap > 0 && v.ClientSCOMAFrames() >= cap
}

// SCOMA allocates every shared client page in S-COMA mode with an
// unbounded page cache — the paper's optimal baseline (no capacity
// misses to remote nodes, maximal memory consumption).
type SCOMA struct{}

// Name implements Policy.
func (SCOMA) Name() string { return "SCOMA" }

// Choose implements Policy.
func (SCOMA) Choose(v View, g mem.GPage) Decision {
	return Decision{Mode: pit.ModeSCOMA}
}

// LANUMA allocates every shared client page in LA-NUMA mode — the
// CC-NUMA-equivalent configuration (plus PIT translation).
type LANUMA struct{}

// Name implements Policy.
func (LANUMA) Name() string { return "LANUMA" }

// Choose implements Policy.
func (LANUMA) Choose(v View, g mem.GPage) Decision {
	return Decision{Mode: pit.ModeLANUMA}
}

// SCOMA70 is the capped static configuration: all client pages are
// S-COMA, and when the page cache is full the least-recently-used
// client frame is paged out (no mode conversion, so the evicted page
// refaults back into S-COMA — the paging churn of §4.3).
type SCOMA70 struct{}

// Name implements Policy.
func (SCOMA70) Name() string { return "SCOMA-70" }

// Choose implements Policy.
func (SCOMA70) Choose(v View, g mem.GPage) Decision {
	if !full(v) {
		return Decision{Mode: pit.ModeSCOMA}
	}
	if victim, ok := v.LRUVictim(); ok {
		return Decision{Mode: pit.ModeSCOMA, Victim: victim, HasVictim: true}
	}
	// Every candidate is busy: transiently exceed the cap rather than
	// stall the fault (the hardware pools are not hard-limited).
	return Decision{Mode: pit.ModeSCOMA}
}

// DynFCFS allocates S-COMA frames first-come-first-served until the
// page cache is full, then maps new pages with LA-NUMA frames. Pure
// OS policy: needs no hardware support and causes no page-outs.
type DynFCFS struct{}

// Name implements Policy.
func (DynFCFS) Name() string { return "Dyn-FCFS" }

// Choose implements Policy.
func (DynFCFS) Choose(v View, g mem.GPage) Decision {
	if full(v) {
		return Decision{Mode: pit.ModeLANUMA}
	}
	return Decision{Mode: pit.ModeSCOMA}
}

// DynUtil evicts the client S-COMA frame with the most Invalid
// fine-grain tags (a lightly-utilized or communication page), converts
// that page to LA-NUMA mode, and gives the freed frame to the faulting
// page. Requires controller support for the invalid-count query.
type DynUtil struct{}

// Name implements Policy.
func (DynUtil) Name() string { return "Dyn-Util" }

// Choose implements Policy.
func (DynUtil) Choose(v View, g mem.GPage) Decision {
	if !full(v) {
		return Decision{Mode: pit.ModeSCOMA}
	}
	if victim, ok := v.MostInvalidVictim(); ok {
		return Decision{Mode: pit.ModeSCOMA, Victim: victim, HasVictim: true, ConvertVictim: true}
	}
	return Decision{Mode: pit.ModeLANUMA}
}

// DynLRU pages out the least-recently-used client S-COMA frame,
// converts its page to LA-NUMA mode, and reallocates the frame to the
// faulting page. The kernel's LRU is exact, by each frame's last local
// bus transaction; software could approximate it with pseudo-LRU.
type DynLRU struct{}

// Name implements Policy.
func (DynLRU) Name() string { return "Dyn-LRU" }

// Choose implements Policy.
func (DynLRU) Choose(v View, g mem.GPage) Decision {
	if !full(v) {
		return Decision{Mode: pit.ModeSCOMA}
	}
	if victim, ok := v.LRUVictim(); ok {
		return Decision{Mode: pit.ModeSCOMA, Victim: victim, HasVictim: true, ConvertVictim: true}
	}
	return Decision{Mode: pit.ModeLANUMA}
}

// ByName returns the policy with the given name (as printed in the
// paper's Figure 7 legend).
func ByName(name string) (Policy, error) {
	switch name {
	case "SCOMA", "scoma":
		return SCOMA{}, nil
	case "LANUMA", "lanuma":
		return LANUMA{}, nil
	case "SCOMA-70", "scoma-70", "scoma70":
		return SCOMA70{}, nil
	case "Dyn-FCFS", "dyn-fcfs", "fcfs":
		return DynFCFS{}, nil
	case "Dyn-Util", "dyn-util", "util":
		return DynUtil{}, nil
	case "Dyn-LRU", "dyn-lru", "lru":
		return DynLRU{}, nil
	case "Dyn-Both", "dyn-both", "both":
		return DynBoth{}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// All returns every policy in the paper's Figure 7 order.
func All() []Policy {
	return []Policy{SCOMA{}, LANUMA{}, SCOMA70{}, DynFCFS{}, DynUtil{}, DynLRU{}}
}
