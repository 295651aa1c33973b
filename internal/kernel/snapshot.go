package kernel

import (
	"fmt"
	"sort"

	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// Serializable kernel state. Every map exports as a slice sorted by
// its key so the JSON encoding is deterministic. In-flight state
// (inProgress, pageBusy, pendingIn, unmapWait, migrating) holds host
// closures and is never captured: the capture layer checks Quiesced
// first. Segment attachments are not captured either — they are
// re-created deterministically by machine construction and workload
// setup before state import.

// PTEState is one page-table mapping.
type PTEState struct {
	Seg   mem.VSID
	Page  uint32
	Frame mem.FrameID
	Mode  uint8
}

// SoftTLBState is the software TLB, exported verbatim: its contents
// cannot change simulated results, but its hit/miss counters feed the
// "tlb" metrics component, so resident-set differences would change
// metrics exports.
type SoftTLBState struct {
	Keys  []uint64
	PTEs  []PTEState // Seg/Page unused; Frame/Mode per slot
	Stats TLBStats
}

// FrameBindingState is one frame's binding record.
type FrameBindingState struct {
	Frame  mem.FrameID
	VPSeg  mem.VSID
	VPPage uint32
	GSeg   mem.GSID
	GPage  uint32
	Client bool
}

// GPageEntry carries a per-page scalar (mode, hint, flag, frame or
// node depending on the slice it appears in).
type GPageEntry struct {
	Seg   mem.GSID
	Page  uint32
	Value uint64
}

// HomePageState is one home page's client bookkeeping.
type HomePageState struct {
	Seg    mem.GSID
	Page   uint32
	Frame  mem.FrameID
	Known  mem.NodeSet
	Mapped mem.NodeSet
}

// MigRecordState is one migrated-away record at a static home.
type MigRecordState struct {
	Seg   mem.GSID
	Page  uint32
	Node  mem.NodeID
	Frame mem.FrameID
}

// KernelState is one node kernel's complete serializable state.
type KernelState struct {
	PT  []PTEState
	TLB SoftTLBState

	FreeReal  []mem.FrameID
	NextReal  mem.FrameID
	NextImag  mem.FrameID
	RealInUse int

	ClientSCOMA     int
	ClientSCOMAHigh int
	Frames          []FrameBindingState

	PageMode      []GPageEntry // Value = pit.Mode
	HomeStatus    []GPageEntry // set membership; Value unused
	HomeFrameHint []GPageEntry // Value = frame
	DynHomeHint   []GPageEntry // Value = node
	HomePages     []HomePageState
	MigratedAway  []MigRecordState
	DynPages      []GPageEntry // Value = frame

	Stats Stats
}

// Quiesced reports whether the kernel has no in-flight fault, page-out,
// page-in, unmap or migration work (part of the capture layer's
// quiescence predicate).
func (k *Kernel) Quiesced() bool {
	return len(k.inProgress) == 0 && len(k.pageBusy) == 0 && len(k.pendingIn) == 0 &&
		len(k.unmapWait) == 0 && len(k.migrating) == 0
}

func sortGP(s []GPageEntry) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Seg != s[j].Seg {
			return s[i].Seg < s[j].Seg
		}
		return s[i].Page < s[j].Page
	})
}

// ExportState captures the kernel. It panics if the kernel is not
// quiescent or any frame binding is mid-page-out.
func (k *Kernel) ExportState() KernelState {
	if !k.Quiesced() {
		panic(fmt.Sprintf("kernel: node %d ExportState while not quiescent", k.node))
	}
	s := KernelState{
		FreeReal:        append([]mem.FrameID(nil), k.freeReal...),
		NextReal:        k.nextReal,
		NextImag:        k.nextImag,
		RealInUse:       k.realInUse,
		ClientSCOMA:     len(k.clients),
		ClientSCOMAHigh: k.clientSCOMAHigh,
		Stats:           k.Stats,
	}
	for vp, pte := range k.pt {
		s.PT = append(s.PT, PTEState{Seg: vp.Seg, Page: vp.Page, Frame: pte.Frame, Mode: uint8(pte.Mode)})
	}
	sort.Slice(s.PT, func(i, j int) bool {
		if s.PT[i].Seg != s.PT[j].Seg {
			return s.PT[i].Seg < s.PT[j].Seg
		}
		return s.PT[i].Page < s.PT[j].Page
	})
	s.TLB = SoftTLBState{
		Keys:  append([]uint64(nil), k.tlb.keys...),
		PTEs:  make([]PTEState, len(k.tlb.ptes)),
		Stats: k.tlb.Stats,
	}
	for i, pte := range k.tlb.ptes {
		s.TLB.PTEs[i] = PTEState{Frame: pte.Frame, Mode: uint8(pte.Mode)}
	}
	for f, fb := range k.frames {
		if fb.busy {
			panic(fmt.Sprintf("kernel: node %d ExportState with busy frame %d", k.node, f))
		}
		s.Frames = append(s.Frames, FrameBindingState{
			Frame: f, VPSeg: fb.vp.Seg, VPPage: fb.vp.Page,
			GSeg: fb.page.Seg, GPage: fb.page.Page, Client: fb.client,
		})
	}
	sort.Slice(s.Frames, func(i, j int) bool { return s.Frames[i].Frame < s.Frames[j].Frame })
	for g, m := range k.pageMode {
		s.PageMode = append(s.PageMode, GPageEntry{Seg: g.Seg, Page: g.Page, Value: uint64(m)})
	}
	for g := range k.homeStatus {
		s.HomeStatus = append(s.HomeStatus, GPageEntry{Seg: g.Seg, Page: g.Page})
	}
	for g, f := range k.homeFrameHint {
		s.HomeFrameHint = append(s.HomeFrameHint, GPageEntry{Seg: g.Seg, Page: g.Page, Value: uint64(f)})
	}
	for g, n := range k.dynHomeHint {
		s.DynHomeHint = append(s.DynHomeHint, GPageEntry{Seg: g.Seg, Page: g.Page, Value: uint64(n)})
	}
	for g, f := range k.dynPages {
		s.DynPages = append(s.DynPages, GPageEntry{Seg: g.Seg, Page: g.Page, Value: uint64(f)})
	}
	sortGP(s.PageMode)
	sortGP(s.HomeStatus)
	sortGP(s.HomeFrameHint)
	sortGP(s.DynHomeHint)
	sortGP(s.DynPages)
	for g, hp := range k.homePages {
		s.HomePages = append(s.HomePages, HomePageState{Seg: g.Seg, Page: g.Page, Frame: hp.frame, Known: hp.known, Mapped: hp.mapped})
	}
	sort.Slice(s.HomePages, func(i, j int) bool {
		if s.HomePages[i].Seg != s.HomePages[j].Seg {
			return s.HomePages[i].Seg < s.HomePages[j].Seg
		}
		return s.HomePages[i].Page < s.HomePages[j].Page
	})
	for g, rec := range k.migratedAway {
		s.MigratedAway = append(s.MigratedAway, MigRecordState{Seg: g.Seg, Page: g.Page, Node: rec.node, Frame: rec.frame})
	}
	sort.Slice(s.MigratedAway, func(i, j int) bool {
		if s.MigratedAway[i].Seg != s.MigratedAway[j].Seg {
			return s.MigratedAway[i].Seg < s.MigratedAway[j].Seg
		}
		return s.MigratedAway[i].Page < s.MigratedAway[j].Page
	})
	return s
}

// ImportState restores the kernel over a freshly built machine (the
// segment attachments must already be in place from setup).
func (k *Kernel) ImportState(s KernelState) {
	k.pt = make(map[mem.VPage]PTE, len(s.PT))
	k.tlb = newSoftTLB()
	for _, e := range s.PT {
		k.pt[mem.VPage{Seg: e.Seg, Page: e.Page}] = PTE{Frame: e.Frame, Mode: pit.Mode(e.Mode)}
	}
	copy(k.tlb.keys, s.TLB.Keys)
	for i, e := range s.TLB.PTEs {
		k.tlb.ptes[i] = PTE{Frame: e.Frame, Mode: pit.Mode(e.Mode)}
	}
	k.tlb.Stats = s.TLB.Stats

	k.freeReal = append(k.freeReal[:0], s.FreeReal...)
	k.nextReal = s.NextReal
	k.nextImag = s.NextImag
	k.realInUse = s.RealInUse
	// The client list and its count are rebuilt from the bindings;
	// ClientSCOMA is their length at export.
	k.frames = make(map[mem.FrameID]*frameBinding, len(s.Frames))
	k.clients = nil
	for _, e := range s.Frames {
		fb := &frameBinding{
			frame: e.Frame,
			vp:    mem.VPage{Seg: e.VPSeg, Page: e.VPPage},
			page:  mem.GPage{Seg: e.GSeg, Page: e.GPage},
		}
		k.frames[e.Frame] = fb
		k.setClient(fb, e.Client)
	}
	k.clientSCOMAHigh = s.ClientSCOMAHigh
	k.pageMode = make(map[mem.GPage]pit.Mode, len(s.PageMode))
	for _, e := range s.PageMode {
		k.pageMode[mem.GPage{Seg: e.Seg, Page: e.Page}] = pit.Mode(e.Value)
	}
	k.homeStatus = make(map[mem.GPage]bool, len(s.HomeStatus))
	for _, e := range s.HomeStatus {
		k.homeStatus[mem.GPage{Seg: e.Seg, Page: e.Page}] = true
	}
	k.homeFrameHint = make(map[mem.GPage]mem.FrameID, len(s.HomeFrameHint))
	for _, e := range s.HomeFrameHint {
		k.homeFrameHint[mem.GPage{Seg: e.Seg, Page: e.Page}] = mem.FrameID(e.Value)
	}
	k.dynHomeHint = make(map[mem.GPage]mem.NodeID, len(s.DynHomeHint))
	for _, e := range s.DynHomeHint {
		k.dynHomeHint[mem.GPage{Seg: e.Seg, Page: e.Page}] = mem.NodeID(e.Value)
	}
	k.dynPages = make(map[mem.GPage]mem.FrameID, len(s.DynPages))
	for _, e := range s.DynPages {
		k.dynPages[mem.GPage{Seg: e.Seg, Page: e.Page}] = mem.FrameID(e.Value)
	}
	k.homePages = make(map[mem.GPage]*homePage, len(s.HomePages))
	for _, e := range s.HomePages {
		k.homePages[mem.GPage{Seg: e.Seg, Page: e.Page}] = &homePage{frame: e.Frame, known: e.Known, mapped: e.Mapped}
	}
	k.migratedAway = make(map[mem.GPage]migRecord, len(s.MigratedAway))
	for _, e := range s.MigratedAway {
		k.migratedAway[mem.GPage{Seg: e.Seg, Page: e.Page}] = migRecord{node: e.Node, frame: e.Frame}
	}
	k.inProgress = make(map[mem.VPage][]faultCont)
	k.pageBusy = make(map[mem.GPage][]func())
	k.pendingIn = make(map[mem.GPage][]func(at sim.Time, resp *PageInResp))
	k.unmapWait = make(map[mem.GPage]*unmapTxn)
	k.migrating = make(map[mem.GPage]func(at sim.Time))
	k.Stats = s.Stats
}
