// Package kernel implements one node's independent operating-system
// kernel: node-private virtual memory management (page tables and
// frame pools per mode), page-fault handling, the external paging
// protocol against page homes, page-mode binding under a pluggable
// policy, home-page-status flags, and the home-side paging service.
//
// Each kernel manages only its own node's resources (§3.3): page
// faults never require global TLB invalidations, and all translations
// are node-private.
package kernel

import (
	"fmt"

	"prism/internal/coherence"
	"prism/internal/ipc"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/policy"
	"prism/internal/pool"
	"prism/internal/sim"
	"prism/internal/timing"
)

// PTE is a page-table entry.
type PTE struct {
	Frame mem.FrameID
	Mode  pit.Mode
}

// NodeHW is the hardware the kernel drives that lives in the node
// layer (avoiding an import cycle).
type NodeHW interface {
	// TLBShootdown invalidates vp in every local processor TLB. Local
	// only — PRISM never needs cross-node TLB invalidation.
	TLBShootdown(vp mem.VPage)
}

// Config sizes one node's memory.
type Config struct {
	// RealFrames is the node's physical memory in frames. Exhausting
	// it is a configuration error (panic); the page-cache cap below is
	// what creates paging pressure in the experiments.
	RealFrames int
	// PageCacheCap bounds the number of *client* S-COMA frames
	// (0 = unlimited). SCOMA-70 and the adaptive policies set this.
	PageCacheCap int
	// NoHomeFlags disables the home-page-status flag optimization of
	// §3.3 (every client fault then pays the page-in round trip) —
	// an ablation knob.
	NoHomeFlags bool
}

// Stats counts kernel paging activity.
type Stats struct {
	Faults        uint64
	PrivateFaults uint64
	HomeFaults    uint64
	ClientFaults  uint64
	// FlagHits counts client faults that skipped the page-in message
	// thanks to the home-page-status flag.
	FlagHits uint64
	// PageInMsgs counts page-in requests actually sent.
	PageInMsgs uint64
	// ClientPageOuts is the Table 4/5 "Page-Outs" statistic.
	ClientPageOuts uint64
	// Conversions counts pages switched to LA-NUMA mode by a policy;
	// ReverseConversions counts Dyn-Both's LA-NUMA → S-COMA switches.
	Conversions        uint64
	ReverseConversions uint64
	// HomePageOuts counts home-initiated page-outs.
	HomePageOuts uint64
	// Migrations counts lazy page migrations this node coordinated.
	Migrations uint64

	// Per-type message receive counts (telemetry: the paging
	// protocol mix delivered to this node).
	MsgPageInReq     uint64
	MsgPageInResp    uint64
	MsgUnmapReq      uint64
	MsgUnmapAck      uint64
	MsgMigratePrep   uint64
	MsgMigrateData   uint64
	MsgMigrateCommit uint64
	MsgMigrateDone   uint64

	// Frame accounting (Table 3).
	RealAllocated uint64 // real frames allocated (private + home + client S-COMA)
	ImagAllocated uint64 // imaginary (LA-NUMA) frames allocated
	// UtilSum/UtilFrames accumulate per-frame utilization of real
	// frames as they are freed; live frames are added by Utilization.
	UtilSum    float64
	UtilFrames uint64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// ResetMeasurement clears the measurement counters while keeping the
// whole-run frame accounting (RealAllocated, ImagAllocated, UtilSum,
// UtilFrames), following the machine-wide reset contract: Table 3 is
// reported for whole runs, Tables 4/5 for the measured phase.
func (s *Stats) ResetMeasurement() {
	*s = Stats{
		RealAllocated: s.RealAllocated,
		ImagAllocated: s.ImagAllocated,
		UtilSum:       s.UtilSum,
		UtilFrames:    s.UtilFrames,
	}
}

type attachInfo struct {
	gsid    mem.GSID
	private bool
}

type frameBinding struct {
	frame mem.FrameID
	vp    mem.VPage
	page  mem.GPage
	// client marks a client (non-home) S-COMA frame, subject to the
	// cap; slot is then its index in Kernel.clients. Both change only
	// through setClient.
	client bool
	slot   int
	busy   bool // page-out in progress
}

type homePage struct {
	frame mem.FrameID
	// known and mapped are node sets (same convention as
	// pit.Entry.Caps): clients holding a home-page-status flag, and
	// clients with the page currently mapped.
	known  mem.NodeSet
	mapped mem.NodeSet
}

type faultCont func(at sim.Time, f mem.FrameID, ok bool)

// Kernel is one node's OS kernel.
type Kernel struct {
	e    *sim.Engine
	node mem.NodeID
	geom mem.Geometry
	tm   *timing.T
	cfg  Config

	reg  *ipc.Registry
	ctrl *coherence.Controller
	net  *network.Network
	hw   NodeHW
	pol  policy.Policy

	attach map[mem.VSID]attachInfo
	// pt is the node page table. It is mutated only through ptSet /
	// ptDelete, which keep the software TLB coherent; direct reads are
	// fine (the TLB is a cache, not the truth).
	pt  map[mem.VPage]PTE
	tlb softTLB

	freeReal  []mem.FrameID
	nextReal  mem.FrameID
	nextImag  mem.FrameID
	realInUse int

	clientSCOMAHigh int
	frames          map[mem.FrameID]*frameBinding
	// clients holds every binding with client set, densely and in no
	// particular order: the page-out victim candidates, and its length
	// is the client S-COMA frame count.
	clients []*frameBinding

	// Per-page client-side state.
	pageMode      map[mem.GPage]pit.Mode // sticky mode (absent = S-COMA preferred)
	homeStatus    map[mem.GPage]bool     // home-page-status flags
	homeFrameHint map[mem.GPage]mem.FrameID
	dynHomeHint   map[mem.GPage]mem.NodeID

	// In-flight bookkeeping.
	inProgress map[mem.VPage][]faultCont
	pageBusy   map[mem.GPage][]func()
	pendingIn  map[mem.GPage][]func(at sim.Time, resp *PageInResp)

	// Home-side state.
	homePages map[mem.GPage]*homePage
	unmapWait map[mem.GPage]*unmapTxn

	// Migration state (§3.5). migrating and migratedAway live at the
	// static home; dynPages records pages adopted as dynamic home.
	migrating    map[mem.GPage]func(at sim.Time)
	migratedAway map[mem.GPage]migRecord
	dynPages     map[mem.GPage]mem.FrameID

	// Free lists for the steady-state paging protocol: frame bindings
	// and the four paging message types recycle instead of allocating
	// (released on delivery, mirroring the pooled-event pattern).
	fbPool         pool.Free[frameBinding]
	poolPageInReq  pool.Free[PageInReq]
	poolPageInResp pool.Free[PageInResp]
	poolUnmapReq   pool.Free[HomeUnmapReq]
	poolUnmapAck   pool.Free[HomeUnmapAck]

	// Reused scratch buffer (contents valid until the next call of
	// the method that fills it).
	clientScratch []mem.NodeID

	Stats Stats

	// Latency histograms (nil when no registry is attached; Observe
	// on nil is a no-op).
	histFault     *metrics.Histogram // fault taken → mapping installed
	histMigration *metrics.Histogram // MigratePage → registry commit
}

type unmapTxn struct {
	needAcks int
	done     func(at sim.Time)
}

// imagBase separates imaginary frame numbers from real ones.
const imagBase mem.FrameID = 1 << 20

// New builds a kernel. Call Bind afterwards to connect the controller
// (construction order: kernel and controller reference each other).
func New(e *sim.Engine, node mem.NodeID, geom mem.Geometry, tm *timing.T, cfg Config,
	reg *ipc.Registry, net *network.Network, pol policy.Policy) *Kernel {
	if cfg.RealFrames <= 0 {
		panic(fmt.Sprintf("kernel: node %d has no memory (RealFrames=%d)", node, cfg.RealFrames))
	}
	return &Kernel{
		e: e, node: node, geom: geom, tm: tm, cfg: cfg,
		reg: reg, net: net, pol: pol,
		attach:        make(map[mem.VSID]attachInfo),
		pt:            make(map[mem.VPage]PTE),
		tlb:           newSoftTLB(),
		nextImag:      imagBase,
		frames:        make(map[mem.FrameID]*frameBinding),
		pageMode:      make(map[mem.GPage]pit.Mode),
		homeStatus:    make(map[mem.GPage]bool),
		homeFrameHint: make(map[mem.GPage]mem.FrameID),
		dynHomeHint:   make(map[mem.GPage]mem.NodeID),
		inProgress:    make(map[mem.VPage][]faultCont),
		pageBusy:      make(map[mem.GPage][]func()),
		pendingIn:     make(map[mem.GPage][]func(sim.Time, *PageInResp)),
		homePages:     make(map[mem.GPage]*homePage),
		unmapWait:     make(map[mem.GPage]*unmapTxn),
	}
}

// Bind connects the controller and node hardware. If the policy is a
// reuse detector (Dyn-Both), the controller's refetch hook is armed so
// hot LA-NUMA pages convert back to S-COMA.
func (k *Kernel) Bind(ctrl *coherence.Controller, hw NodeHW) {
	k.ctrl = ctrl
	k.hw = hw
	if rd, ok := k.pol.(policy.ReuseDetector); ok {
		ctrl.SetRefetchHook(rd.RefetchThreshold(), k.convertToSCOMA)
	}
}

// convertToSCOMA is the reverse adaptive direction: a LA-NUMA page
// that keeps refetching lines from its home is unmapped and unpinned,
// so its next fault allocates an S-COMA frame (which may in turn evict
// a colder page under the forward policy).
func (k *Kernel) convertToSCOMA(f mem.FrameID) {
	fb := k.frames[f]
	if fb == nil || f < imagBase {
		return // raced with an unmap or conversion
	}
	g := fb.page
	if _, busy := k.pageBusy[g]; busy {
		return
	}
	if _, faulting := k.inProgress[fb.vp]; faulting {
		return
	}
	k.Stats.ReverseConversions++
	k.ReleaseLANUMA(f, pit.ModeSCOMA, func(sim.Time) {})
}

// AttachPrivate binds vsid as a node-private segment: its pages get
// Local-mode frames.
func (k *Kernel) AttachPrivate(vsid mem.VSID) {
	k.attach[vsid] = attachInfo{private: true}
}

// AttachGlobal binds vsid to global segment gsid at identical page
// offsets — the globalized shmat (§3.4). The user-controlled,
// region-granularity global binding is exactly this call: one
// coordination per segment, not per page.
func (k *Kernel) AttachGlobal(vsid mem.VSID, gsid mem.GSID) error {
	if _, err := k.reg.Shmat(gsid); err != nil {
		return err
	}
	k.attach[vsid] = attachInfo{gsid: gsid}
	return nil
}

// PTE looks up vp in the node page table (the hardware walker's view).
// A software TLB fronts the map; hits and misses are counted in the
// "tlb" metrics component. The TLB is kept exactly coherent by ptSet
// and ptDelete, so the result is always identical to a map lookup.
func (k *Kernel) PTE(vp mem.VPage) (PTE, bool) {
	if pte, ok := k.tlb.lookup(vp); ok {
		return pte, true
	}
	e, ok := k.pt[vp]
	if ok {
		k.tlb.install(vp, e)
	}
	return e, ok
}

// ptSet installs a page-table mapping and write-allocates it into the
// software TLB. Every page-table write must go through here.
func (k *Kernel) ptSet(vp mem.VPage, pte PTE) {
	k.pt[vp] = pte
	k.tlb.install(vp, pte)
}

// ptDelete removes a page-table mapping and shoots the software TLB —
// the unmap/migrate/mode-change invalidation that keeps stale
// translations from ever being served. Every page-table delete must go
// through here.
func (k *Kernel) ptDelete(vp mem.VPage) {
	delete(k.pt, vp)
	k.tlb.invalidate(vp)
}

// bindFrame records frame f's binding using a pooled frameBinding.
func (k *Kernel) bindFrame(f mem.FrameID, vp mem.VPage, g mem.GPage, client bool) *frameBinding {
	fb := k.fbPool.Get()
	fb.frame, fb.vp, fb.page = f, vp, g
	k.frames[f] = fb
	k.setClient(fb, client)
	return fb
}

// unbindFrame drops frame f's binding and recycles it. Callers that
// still need the binding's fields must read them first (Put zeroes).
func (k *Kernel) unbindFrame(f mem.FrameID) {
	if fb := k.frames[f]; fb != nil {
		k.setClient(fb, false)
		delete(k.frames, f)
		k.fbPool.Put(fb)
	}
}

// setClient is the one place a binding joins or leaves the client
// list: joining appends it, leaving moves the last entry into its slot.
// It also keeps the client S-COMA high-water mark.
func (k *Kernel) setClient(fb *frameBinding, client bool) {
	if fb.client == client {
		return
	}
	fb.client = client
	if client {
		fb.slot = len(k.clients)
		k.clients = append(k.clients, fb)
		if len(k.clients) > k.clientSCOMAHigh {
			k.clientSCOMAHigh = len(k.clients)
		}
		return
	}
	last := len(k.clients) - 1
	moved := k.clients[last]
	k.clients[fb.slot] = moved
	moved.slot = fb.slot
	k.clients[last] = nil
	k.clients = k.clients[:last]
}

// GlobalPage translates a virtual page to its global page, if vp
// belongs to an attached global segment.
func (k *Kernel) GlobalPage(vp mem.VPage) (mem.GPage, bool) {
	info, ok := k.attach[vp.Seg]
	if !ok || info.private {
		return mem.GPage{}, false
	}
	return mem.GPage{Seg: info.gsid, Page: vp.Page}, true
}

// vpageOf reconstructs the local virtual page for a global page. Valid
// under the identical-offset attach convention used by the loader.
func (k *Kernel) vpageOf(g mem.GPage) (mem.VPage, bool) {
	for vsid, info := range k.attach {
		if !info.private && info.gsid == g.Seg {
			return mem.VPage{Seg: vsid, Page: g.Page}, true
		}
	}
	return mem.VPage{}, false
}

// allocReal takes a real frame from the pool.
func (k *Kernel) allocReal() mem.FrameID {
	if n := len(k.freeReal); n > 0 {
		f := k.freeReal[n-1]
		k.freeReal = k.freeReal[:n-1]
		k.realInUse++
		k.Stats.RealAllocated++
		return f
	}
	if int(k.nextReal) >= k.cfg.RealFrames {
		panic(fmt.Sprintf("kernel: node %d out of physical memory (%d frames); raise Config.RealFrames", k.node, k.cfg.RealFrames))
	}
	f := k.nextReal
	k.nextReal++
	k.realInUse++
	k.Stats.RealAllocated++
	return f
}

// allocImag mints an imaginary frame number (LA-NUMA): no memory is
// consumed, the number only names a PIT entry.
func (k *Kernel) allocImag() mem.FrameID {
	f := k.nextImag
	k.nextImag++
	k.Stats.ImagAllocated++
	return f
}

// freeFrame returns a frame to its pool, folding its utilization into
// the Table 3 accumulator.
func (k *Kernel) freeFrame(f mem.FrameID, ent *pit.Entry) {
	if ent != nil && ent.Touched != nil {
		k.Stats.UtilSum += ent.Utilization()
		k.Stats.UtilFrames++
	}
	if f < imagBase {
		k.freeReal = append(k.freeReal, f)
		k.realInUse--
	}
}

// Utilization returns the running average utilization of real frames,
// including currently-live ones (Table 3's static measure).
func (k *Kernel) Utilization() float64 {
	sum, n := k.Stats.UtilSum, k.Stats.UtilFrames
	k.ctrl.PIT.Frames(func(f mem.FrameID, e *pit.Entry) {
		if f < imagBase && e.Touched != nil {
			sum += e.Utilization()
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---------------------------------------------------------------------------
// Page-fault handling
// ---------------------------------------------------------------------------

// HandleFault services a page fault on vp. done runs in engine context
// with the mapped frame; ok=false is an unresolvable fault (segfault:
// vp is not in any attached segment). Concurrent faults on the same
// virtual page coalesce onto one service.
func (k *Kernel) HandleFault(vp mem.VPage, done faultCont) {
	if conts, ok := k.inProgress[vp]; ok {
		k.inProgress[vp] = append(conts, done)
		return
	}

	// Spurious fault: a processor running ahead took the fault before
	// another processor's fault service mapped the page. Re-check the
	// page table (the "retry under the page-table lock" of a real VM
	// system) and return immediately.
	if pte, ok := k.pt[vp]; ok {
		done(k.e.Now(), pte.Frame, true)
		return
	}

	info, ok := k.attach[vp.Seg]
	if !ok {
		done(k.e.Now(), 0, false)
		return
	}

	k.inProgress[vp] = nil
	start := k.e.Now()
	finish := func(at sim.Time, f mem.FrameID, okf bool) {
		k.histFault.Observe(at - start)
		conts := k.inProgress[vp]
		delete(k.inProgress, vp)
		done(at, f, okf)
		for _, c := range conts {
			c(at, f, okf)
		}
	}

	k.Stats.Faults++

	if info.private {
		k.Stats.PrivateFaults++
		f := k.allocReal()
		k.ctrl.PIT.Insert(f, pit.Entry{Mode: pit.ModeLocal, StaticHome: k.node, DynHome: k.node})
		k.bindFrame(f, vp, mem.GPage{}, false)
		k.ptSet(vp, PTE{Frame: f, Mode: pit.ModeLocal})
		finish(k.e.Now()+k.tm.PFKernelLocal, f, true)
		return
	}

	g := mem.GPage{Seg: info.gsid, Page: vp.Page}

	// A page-out of this very page may be in flight; wait for it.
	if _, busy := k.pageBusy[g]; busy {
		k.pageBusy[g] = append(k.pageBusy[g], func() {
			t := k.inProgress[vp]
			delete(k.inProgress, vp)
			k.HandleFault(vp, done)
			// Re-queue any continuations that piled up meanwhile.
			k.inProgress[vp] = append(k.inProgress[vp], t...)
		})
		return
	}

	if k.reg.StaticHome(g) == k.node {
		if rec, away := k.migratedAway[g]; away {
			// The dynamic home moved elsewhere: this node faults as a
			// client of it.
			k.Stats.ClientFaults++
			k.homeStatus[g] = true // the page is in-core at its home by invariant
			k.dynHomeHint[g] = rec.node
			k.homeFrameHint[g] = rec.frame
			k.clientFault(vp, g, finish)
			return
		}
		if f, ok := k.dynPages[g]; ok {
			// Adopted dynamic home: the page is already mapped here.
			k.ptSet(vp, PTE{Frame: f, Mode: pit.ModeSCOMA})
			if fb := k.frames[f]; fb != nil {
				fb.vp = vp
			}
			k.Stats.HomeFaults++
			finish(k.e.Now()+k.tm.PFKernelLocal, f, true)
			return
		}
		k.Stats.HomeFaults++
		f := k.mapAtHome(g)
		mode := pit.ModeSCOMA
		if k.pageMode[g] == pit.ModeSync {
			mode = pit.ModeSync
		}
		k.ptSet(vp, PTE{Frame: f, Mode: mode})
		finish(k.e.Now()+k.tm.PFKernelLocal, f, true)
		return
	}

	k.Stats.ClientFaults++
	if f, ok := k.dynPages[g]; ok {
		// This node adopted the page as its dynamic home even though
		// its static home is elsewhere: map directly.
		k.ptSet(vp, PTE{Frame: f, Mode: pit.ModeSCOMA})
		if fb := k.frames[f]; fb != nil {
			fb.vp = vp
		}
		finish(k.e.Now()+k.tm.PFKernelLocal, f, true)
		return
	}
	k.clientFault(vp, g, finish)
}

// mapAtHome ensures page g is in-core at this (home) node, returning
// its frame. Fine-grain tags initialize to Exclusive and the directory
// entries to exclusive-at-home (§3.3).
func (k *Kernel) mapAtHome(g mem.GPage) mem.FrameID {
	if hp, ok := k.homePages[g]; ok {
		return hp.frame
	}
	if f, ok := k.dynPages[g]; ok {
		// The page migrated away and back: it lives in the adopted
		// set with its directory intact.
		return f
	}
	f := k.allocReal()
	mode := pit.ModeSCOMA
	if k.pageMode[g] == pit.ModeSync {
		mode = pit.ModeSync
	}
	ent := pit.Entry{
		Mode: mode, GPage: g,
		StaticHome: k.node, DynHome: k.node,
		HomeFrame: f, HomeFrameKnown: true,
		Caps: mem.AllNodes(), // experiments run fully trusting; the firewall demo narrows this
	}
	if mode == pit.ModeSCOMA {
		ent.Tags = k.ctrl.PIT.NewTags(pit.TagExclusive)
	}
	k.ctrl.PIT.Insert(f, ent)
	k.ctrl.Dir.AddPage(g, k.node)
	k.bindFrame(f, mem.VPage{}, g, false)
	k.homePages[g] = &homePage{frame: f}
	return f
}

// clientFault runs the client-side fault state machine:
// [optional victim page-out] → [page-in at home unless flagged] →
// [allocate frame, bind PIT and page table].
func (k *Kernel) clientFault(vp mem.VPage, g mem.GPage, finish faultCont) {
	var dec policy.Decision
	switch k.pageMode[g] {
	case pit.ModeLANUMA:
		// The page was converted: future faults use imaginary frames
		// without consulting the policy (§4.2).
		dec = policy.Decision{Mode: pit.ModeLANUMA}
	case pit.ModeSync:
		// Synchronization pages (§3.2): imaginary at clients; the lock
		// state lives at the home controller.
		dec = policy.Decision{Mode: pit.ModeSync}
	default:
		dec = k.pol.Choose(k, g)
	}

	bind := func(at sim.Time) {
		var f mem.FrameID
		ent := pit.Entry{
			Mode: dec.Mode, GPage: g,
			StaticHome: k.reg.StaticHome(g),
			Caps:       mem.AllNodes(),
		}
		if dh, ok := k.dynHomeHint[g]; ok {
			ent.DynHome = dh
		} else {
			ent.DynHome = ent.StaticHome
		}
		if hf, ok := k.homeFrameHint[g]; ok {
			ent.HomeFrame = hf
			ent.HomeFrameKnown = true
		}
		if dec.Mode == pit.ModeSCOMA {
			f = k.allocReal()
			k.bindFrame(f, vp, g, true)
		} else {
			f = k.allocImag()
			k.bindFrame(f, vp, g, false)
		}
		k.ctrl.PIT.Insert(f, ent) // fine-grain tags initialize Invalid
		k.ptSet(vp, PTE{Frame: f, Mode: dec.Mode})
		finish(at, f, true)
	}

	pageIn := func(at sim.Time) {
		if k.homeStatus[g] && !k.cfg.NoHomeFlags {
			// Home-page-status flag set: the page is known in-core at
			// the home; skip the round trip (§3.3 optimization).
			k.Stats.FlagHits++
			k.e.CallAt(at+k.tm.PFKernelClient, bind)
			return
		}
		k.Stats.PageInMsgs++
		first := len(k.pendingIn[g]) == 0
		k.pendingIn[g] = append(k.pendingIn[g], func(rt sim.Time, resp *PageInResp) {
			k.homeStatus[g] = true
			k.homeFrameHint[g] = resp.HomeFrame
			k.dynHomeHint[g] = resp.DynHome
			bind(rt)
		})
		if first {
			t := at + k.tm.PFKernelClient
			req := k.poolPageInReq.Get()
			req.Page = g
			k.net.Send(t, k.node, k.reg.StaticHome(g), k.tm.MsgHeader, req)
		}
	}

	if dec.HasVictim {
		k.pageOutClient(dec.Victim, dec.ConvertVictim, pageIn)
	} else {
		pageIn(k.e.Now())
	}
}

// ---------------------------------------------------------------------------
// Page-out
// ---------------------------------------------------------------------------

// pageOutClient evicts a client page frame: unmaps it locally (page
// table + local TLBs), flushes dirty data to the home, drops the
// client from the home's directory, frees the frame, and optionally
// converts the page to LA-NUMA mode for its future faults here.
func (k *Kernel) pageOutClient(f mem.FrameID, convert bool, done func(at sim.Time)) {
	fb := k.frames[f]
	if fb == nil || !fb.client || fb.busy {
		panic(fmt.Sprintf("kernel: node %d: bad page-out victim %d", k.node, f))
	}
	fb.busy = true
	g := fb.page
	k.Stats.ClientPageOuts++
	if convert {
		k.pageMode[g] = pit.ModeLANUMA
		k.Stats.Conversions++
	}
	if _, exists := k.pageBusy[g]; exists {
		panic(fmt.Sprintf("kernel: node %d: page %v already paging out (victim frame %d, binding %+v, t=%d)", k.node, g, f, *fb, k.e.Now()))
	}
	k.pageBusy[g] = nil

	// Stop new accesses: unmap before flushing.
	k.ptDelete(fb.vp)
	k.hw.TLBShootdown(fb.vp)
	// A client page-out clears the local flag conservatively only when
	// converting; otherwise the home keeps us in its known set and the
	// flag remains valid (the home will tell us if it unmaps).

	start := k.e.Now() + k.tm.PageOutKernel
	var attempt func()
	attempt = func() {
		ent := k.ctrl.PIT.Entry(f)
		if ent != nil && ent.Mode == pit.ModeSCOMA && ent.InTransit() {
			// An in-flight line transaction predates the unmap; let it
			// drain (no new ones can start).
			k.e.Schedule(64, attempt)
			return
		}
		k.ctrl.FlushPage(f, true, func(at sim.Time) {
			ent := k.ctrl.PIT.Remove(f)
			k.unbindFrame(f)
			k.freeFrame(f, ent)
			waiters := k.pageBusy[g]
			delete(k.pageBusy, g)
			done(at)
			for _, w := range waiters {
				w()
			}
		})
	}
	k.e.At(start, attempt)
}

// ReleaseLANUMA unmaps an imaginary-frame page locally: flushes the
// processor caches' (possibly dirty) lines home and removes the
// binding. Used when converting a page between modes at this node
// ("paging out the page and setting its mode", §3.3) and by tests.
func (k *Kernel) ReleaseLANUMA(f mem.FrameID, newMode pit.Mode, done func(at sim.Time)) {
	fb := k.frames[f]
	if fb == nil || f < imagBase {
		panic(fmt.Sprintf("kernel: node %d: ReleaseLANUMA of non-imaginary frame %d", k.node, f))
	}
	g := fb.page
	k.ptDelete(fb.vp)
	k.hw.TLBShootdown(fb.vp)
	k.pageBusy[g] = nil
	if newMode == pit.ModeSCOMA {
		delete(k.pageMode, g)
	} else {
		k.pageMode[g] = newMode
	}
	k.e.Schedule(k.tm.PageOutKernel, func() {
		k.ctrl.FlushPage(f, true, func(at sim.Time) {
			ent := k.ctrl.PIT.Remove(f)
			k.unbindFrame(f)
			k.freeFrame(f, ent)
			waiters := k.pageBusy[g]
			delete(k.pageBusy, g)
			done(at)
			for _, w := range waiters {
				w()
			}
		})
	})
}

// ---------------------------------------------------------------------------
// Policy view (policy.View)
// ---------------------------------------------------------------------------

// ClientSCOMAFrames implements policy.View.
func (k *Kernel) ClientSCOMAFrames() int { return len(k.clients) }

// PageCacheCap implements policy.View.
func (k *Kernel) PageCacheCap() int { return k.cfg.PageCacheCap }

// evictable reports whether client binding fb may be paged out now:
// no page-out already under way, and an S-COMA PIT entry with no line
// in Transit. It returns the entry.
func (k *Kernel) evictable(fb *frameBinding) (*pit.Entry, bool) {
	if fb.busy {
		return nil, false
	}
	ent := k.ctrl.PIT.Entry(fb.frame)
	return ent, ent != nil && ent.Mode == pit.ModeSCOMA && !ent.InTransit()
}

// LRUVictim implements policy.View: least-recently-used by local bus
// accesses to the frame, the lowest frame number among equals. One
// pass over the client list.
func (k *Kernel) LRUVictim() (mem.FrameID, bool) {
	var best mem.FrameID
	var bestT sim.Time
	found := false
	for _, fb := range k.clients {
		ent, ok := k.evictable(fb)
		if !ok {
			continue
		}
		if t := ent.LastAccess; !found || t < bestT || (t == bestT && fb.frame < best) {
			best, bestT, found = fb.frame, t, true
		}
	}
	return best, found
}

// MostInvalidVictim implements policy.View: the frame with the most
// fine-grain tags in Invalid state (a controller query), the lowest
// frame number among equals. One pass over the client list.
func (k *Kernel) MostInvalidVictim() (mem.FrameID, bool) {
	var best mem.FrameID
	bestN := 0
	found := false
	for _, fb := range k.clients {
		ent, ok := k.evictable(fb)
		if !ok {
			continue
		}
		if n := ent.InvalidLines(); !found || n > bestN || (n == bestN && fb.frame < best) {
			best, bestN, found = fb.frame, n, true
		}
	}
	return best, found
}

// CheckClients verifies the client list: it holds exactly the frame
// bindings with client set, each at its recorded slot. It is part of
// the machine-wide invariant sweep, next to CheckTLB.
func (k *Kernel) CheckClients() error {
	for i, fb := range k.clients {
		if fb.slot != i || !fb.client || k.frames[fb.frame] != fb {
			return fmt.Errorf("kernel: node %d: client list slot %d holds frame %d (slot %d, client %v, bound %v)",
				k.node, i, fb.frame, fb.slot, fb.client, k.frames[fb.frame] == fb)
		}
	}
	n := 0
	for _, fb := range k.frames {
		if fb.client {
			n++
		}
	}
	if n != len(k.clients) {
		return fmt.Errorf("kernel: node %d: %d client frames bound, client list holds %d", k.node, n, len(k.clients))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Home-side paging service and message dispatch
// ---------------------------------------------------------------------------

// ClientDropped implements coherence.HomePager: a client's flush with
// Drop arrived; it no longer maps the page (it stays "known" — its
// home-page-status flag remains valid until we unmap).
func (k *Kernel) ClientDropped(g mem.GPage, src mem.NodeID) {
	if hp, ok := k.homePages[g]; ok {
		hp.mapped.Drop(src)
	}
}

// Deliver handles kernel-level (paging) messages. Returns false for
// message types it does not own. The four paging message types are
// released to their pools on delivery: their handlers read the message
// synchronously and never retain it (any state that outlives the
// handler is captured by value). Migration messages are not pooled —
// they are rare and their handlers hold them across retry waits.
func (k *Kernel) Deliver(src mem.NodeID, msg network.Message) bool {
	switch m := msg.(type) {
	case *PageInReq:
		k.Stats.MsgPageInReq++
		k.handlePageIn(src, m)
		k.poolPageInReq.Put(m)
	case *PageInResp:
		k.Stats.MsgPageInResp++
		conts := k.pendingIn[m.Page]
		delete(k.pendingIn, m.Page)
		at := k.e.Now()
		for _, c := range conts {
			c(at, m)
		}
		k.poolPageInResp.Put(m)
	case *HomeUnmapReq:
		k.Stats.MsgUnmapReq++
		k.handleHomeUnmapReq(src, m)
		k.poolUnmapReq.Put(m)
	case *HomeUnmapAck:
		k.Stats.MsgUnmapAck++
		k.handleHomeUnmapAck(src, m)
		k.poolUnmapAck.Put(m)
	case *MigratePrepMsg:
		k.Stats.MsgMigratePrep++
		k.handleMigratePrep(src, m)
	case *MigrateDataMsg:
		k.Stats.MsgMigrateData++
		k.handleMigrateData(src, m)
	case *MigrateCommitMsg:
		k.Stats.MsgMigrateCommit++
		k.handleMigrateCommit(src, m)
	case *MigrateDoneMsg:
		k.Stats.MsgMigrateDone++
		k.handleMigrateDone(src, m)
	default:
		return false
	}
	return true
}

// RegisterMetrics registers the kernel's paging counters, frame
// accounting and latency histograms.
func (k *Kernel) RegisterMetrics(r *metrics.Registry) {
	nd := int(k.node)
	s := &k.Stats
	for _, ct := range []struct {
		name string
		v    *uint64
	}{
		{"faults", &s.Faults},
		{"private_faults", &s.PrivateFaults},
		{"home_faults", &s.HomeFaults},
		{"client_faults", &s.ClientFaults},
		{"flag_hits", &s.FlagHits},
		{"page_in_msgs", &s.PageInMsgs},
		{"client_page_outs", &s.ClientPageOuts},
		{"conversions", &s.Conversions},
		{"reverse_conversions", &s.ReverseConversions},
		{"home_page_outs", &s.HomePageOuts},
		{"migrations", &s.Migrations},
		{"msg_page_in_req", &s.MsgPageInReq},
		{"msg_page_in_resp", &s.MsgPageInResp},
		{"msg_unmap_req", &s.MsgUnmapReq},
		{"msg_unmap_ack", &s.MsgUnmapAck},
		{"msg_migrate_prep", &s.MsgMigratePrep},
		{"msg_migrate_data", &s.MsgMigrateData},
		{"msg_migrate_commit", &s.MsgMigrateCommit},
		{"msg_migrate_done", &s.MsgMigrateDone},
		{"real_allocated", &s.RealAllocated},
		{"imag_allocated", &s.ImagAllocated},
	} {
		v := ct.v
		r.CounterFunc(nd, "kernel", ct.name, func() uint64 { return *v })
	}
	r.CounterFunc(nd, "tlb", "hits", func() uint64 { return k.tlb.Stats.Hits })
	r.CounterFunc(nd, "tlb", "misses", func() uint64 { return k.tlb.Stats.Misses })
	r.GaugeFunc(nd, "kernel", "real_frames_in_use", func() float64 { return float64(k.realInUse) })
	r.GaugeFunc(nd, "kernel", "client_scoma_high", func() float64 { return float64(k.clientSCOMAHigh) })
	r.GaugeFunc(nd, "kernel", "utilization", func() float64 { return k.Utilization() })
	k.histFault = r.Histogram(nd, "kernel", "page_fault_cycles", metrics.DefaultLatencyBounds)
	k.histMigration = r.Histogram(nd, "kernel", "migration_cycles", metrics.DefaultLatencyBounds)
}

// ResetStats clears the kernel's measurement counters and histograms,
// following the machine-wide reset contract: whole-run frame
// accounting (allocation totals, utilization accumulators and the
// client S-COMA high-water mark) persists, as do all mappings. The
// software TLB's hit/miss counters clear with the other measurement
// counters; its contents are structural state (a cache of the page
// table) and survive, like the page table itself.
func (k *Kernel) ResetStats() {
	k.Stats.ResetMeasurement()
	k.tlb.Stats = TLBStats{}
	k.histFault.Reset()
	k.histMigration.Reset()
}

func (k *Kernel) handlePageIn(src mem.NodeID, m *PageInReq) {
	if k.reg.StaticHome(m.Page) != k.node {
		panic(fmt.Sprintf("kernel: node %d got PageInReq for %v homed at %d", k.node, m.Page, k.reg.StaticHome(m.Page)))
	}
	t := k.e.Now() + k.tm.PFHomeService
	if rec, away := k.migratedAway[m.Page]; away {
		// The dynamic home moved: it keeps the page in-core by the
		// migration invariant, so the static home answers directly.
		resp := k.poolPageInResp.Get()
		resp.Page, resp.HomeFrame, resp.DynHome = m.Page, rec.frame, rec.node
		k.net.Send(t, k.node, src, k.tm.MsgHeader, resp)
		return
	}
	f := k.mapAtHome(m.Page)
	if hp := k.homePages[m.Page]; hp != nil {
		hp.known.Add(src)
		hp.mapped.Add(src)
	}
	resp := k.poolPageInResp.Get()
	resp.Page, resp.HomeFrame, resp.DynHome = m.Page, f, k.reg.DynamicHome(m.Page)
	k.net.Send(t, k.node, src, k.tm.MsgHeader, resp)
}

// EvictHomePage pages out page g at its home: every known client is
// asked to drop its copy and reset its flag; once all acknowledge, the
// home removes the page (writing it "to disk" — modeled as kernel
// cost) and frees the frame. done runs when complete.
func (k *Kernel) EvictHomePage(g mem.GPage, done func(at sim.Time)) error {
	if _, away := k.migratedAway[g]; away {
		return fmt.Errorf("kernel: %v migrated away; migrate it back before a home page-out", g)
	}
	if _, busy := k.migrating[g]; busy {
		return fmt.Errorf("kernel: %v is migrating", g)
	}
	hp, ok := k.homePages[g]
	if !ok {
		return fmt.Errorf("kernel: node %d is not home of a mapped %v", k.node, g)
	}
	if _, busy := k.unmapWait[g]; busy {
		return fmt.Errorf("kernel: node %d: %v already being unmapped", k.node, g)
	}
	k.Stats.HomePageOuts++
	// Ascending bit iteration replaces the old map-iterate-then-sort:
	// same deterministic client order.
	clients := hp.known.List(k.clientScratch[:0])
	k.clientScratch = clients

	finish := func(at sim.Time) {
		// Unmap locally: shoot down local translations, remove PIT,
		// directory and page table state.
		if vp, ok := k.vpageOf(g); ok {
			k.ptDelete(vp)
			k.hw.TLBShootdown(vp)
		}
		ent := k.ctrl.PIT.Remove(hp.frame)
		k.ctrl.Dir.RemovePage(g)
		k.unbindFrame(hp.frame)
		k.freeFrame(hp.frame, ent)
		delete(k.homePages, g)
		done(at + k.tm.PageOutKernel)
	}

	if len(clients) == 0 {
		k.e.ScheduleCall(k.tm.PageOutKernel, finish)
		return nil
	}
	k.unmapWait[g] = &unmapTxn{needAcks: len(clients), done: finish}
	t := k.e.Now() + k.tm.PageOutKernel
	for _, c := range clients {
		req := k.poolUnmapReq.Get()
		req.Page = g
		k.net.Send(t, k.node, c, k.tm.MsgHeader, req)
	}
	return nil
}

func (k *Kernel) handleHomeUnmapReq(src mem.NodeID, m *HomeUnmapReq) {
	g := m.Page
	// Reset the flag regardless (§3.3: "when the home node unmaps a
	// page, it requests all client nodes to reset that page's flag").
	delete(k.homeStatus, g)
	delete(k.homeFrameHint, g)
	delete(k.dynHomeHint, g)

	ack := func(at sim.Time) {
		resp := k.poolUnmapAck.Get()
		resp.Page = g
		k.net.Send(at, k.node, src, k.tm.MsgHeader, resp)
	}

	f, ok := k.ctrl.PIT.FrameFor(g)
	if !ok {
		ack(k.e.Now())
		return
	}
	fb := k.frames[f]
	if fb == nil || fb.busy {
		ack(k.e.Now())
		return
	}
	if fb.client {
		k.pageOutClient(f, false, ack)
	} else if f >= imagBase {
		k.ReleaseLANUMA(f, pit.ModeLANUMA, ack)
	} else {
		ack(k.e.Now())
	}
}

func (k *Kernel) handleHomeUnmapAck(src mem.NodeID, m *HomeUnmapAck) {
	txn := k.unmapWait[m.Page]
	if txn == nil {
		return
	}
	txn.needAcks--
	if txn.needAcks == 0 {
		delete(k.unmapWait, m.Page)
		txn.done(k.e.Now())
	}
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// RealFramesInUse returns the number of live real frames.
func (k *Kernel) RealFramesInUse() int { return k.realInUse }

// MaxClientSCOMA returns the high-water count of client S-COMA frames
// — the per-node quantity SCOMA-70's page cache is sized from.
func (k *Kernel) MaxClientSCOMA() int { return k.clientSCOMAHigh }

// PageModeOf returns the page's sticky mode at this node (ModeInvalid
// means unset — S-COMA preferred).
func (k *Kernel) PageModeOf(g mem.GPage) pit.Mode { return k.pageMode[g] }

// SetPageMode pins a page's mode at this node (the user-facing system
// call of §3.3 "Page Mode Binding": the OS also provides a system call
// for the user to suggest the desired mode).
func (k *Kernel) SetPageMode(g mem.GPage, m pit.Mode) {
	if m == pit.ModeSCOMA {
		delete(k.pageMode, g)
	} else {
		k.pageMode[g] = m
	}
}
