// Package node assembles one PRISM node: four processors with private
// L1/L2 caches and TLBs, the split-transaction memory bus with
// snooping, local DRAM, the coherence controller and the kernel. It
// implements the bus-side dispatch of Figure 4: every transaction is
// classified by its frame's mode (Local / S-COMA / LA-NUMA) and either
// satisfied locally or handed to the controller's client side.
package node

import (
	"fmt"

	"prism/internal/cache"
	"prism/internal/coherence"
	"prism/internal/directory"
	"prism/internal/kernel"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/pool"
	"prism/internal/sim"
	"prism/internal/timing"
)

// Config sizes a node's processors and caches.
type Config struct {
	Procs      int
	L1         cache.Config
	L2         cache.Config
	TLBEntries int
	// Quantum bounds how far a processor's local clock may run ahead
	// of the global clock between yields (Augmint-style loose
	// synchronization).
	Quantum sim.Time
	// PITConfig and DirConfig parameterize the controller structures.
	PITConfig pit.Config
	DirConfig directory.Config
	CtrlCfg   coherence.Config
}

// DefaultConfig matches the paper's per-node hardware with the scaled
// (capacity-exposing) cache sizes of §4.1.
func DefaultConfig(geom mem.Geometry) Config {
	return Config{
		Procs:      4,
		L1:         cache.Config{Size: 8 << 10, Ways: 1, LineSize: geom.LineSize},
		L2:         cache.Config{Size: 32 << 10, Ways: 4, LineSize: geom.LineSize},
		TLBEntries: 64,
		Quantum:    400,
		PITConfig:  pit.DefaultConfig,
		DirConfig:  directory.DefaultConfig,
	}
}

// BusStats counts L2-miss bus dispatches by the frame's page mode and
// where the fill was served — the per-mode hit/miss split the cache
// layer cannot see (caches are mode-oblivious; the mode is known only
// at bus-dispatch time, Figure 4).
type BusStats struct {
	LocalFills   uint64 // Local-mode frames (always served on-node)
	SCOMALocal   uint64 // S-COMA frames served from local memory/caches
	SCOMARemote  uint64 // S-COMA frames handed to the controller
	LANUMALocal  uint64 // LA-NUMA frames served by on-node snooping
	LANUMARemote uint64 // LA-NUMA frames handed to the controller
}

// Reset zeroes the counters.
func (s *BusStats) Reset() { *s = BusStats{} }

// Node is one compute node.
type Node struct {
	ID   mem.NodeID
	e    *sim.Engine
	geom mem.Geometry
	tm   *timing.T

	Procs []*Proc
	Ctrl  *coherence.Controller
	Kern  *kernel.Kernel

	addrBus sim.Resource
	dataBus sim.Resource
	memRes  sim.Resource

	// l2Filter counts the lines every processor's L2 holds. L1 is
	// inclusive in L2, so a zero bucket proves that no cache on the node
	// holds the line, and the snooping paths skip their probes.
	l2Filter *cache.Filter

	// freeRetrieve recycles Retrieve completion events.
	freeRetrieve pool.Free[retrieveEvent]

	// invScratch/invOut are InvalidateFrameLines' reused per-line dirty
	// bitmap and result buffer (valid until the next call).
	invScratch []bool
	invOut     []int

	BusStats BusStats
}

// New builds a node and its controller, binding the kernel to both.
// The kernel must already exist (it and the controller are mutually
// referential). pools is the machine's message pool set, which every
// node's controller shares.
func New(e *sim.Engine, id mem.NodeID, geom mem.Geometry, tm *timing.T, cfg Config,
	net *network.Network, router coherence.HomeRouter, kern *kernel.Kernel, pools *coherence.MsgPools) *Node {

	n := &Node{ID: id, e: e, geom: geom, tm: tm, Kern: kern}
	n.addrBus.Name = fmt.Sprintf("node%d.abus", id)
	n.dataBus.Name = fmt.Sprintf("node%d.dbus", id)
	n.memRes.Name = fmt.Sprintf("node%d.mem", id)

	p := pit.New(id, geom, cfg.PITConfig)
	d := directory.New(id, geom, cfg.DirConfig)
	n.Ctrl = coherence.New(e, id, geom, tm, cfg.CtrlCfg, p, d, net, &n.memRes, n, router, kern, pools)
	kern.Bind(n.Ctrl, n)

	n.l2Filter = cache.NewFilter(cfg.Procs*(cfg.L2.Size/cfg.L2.LineSize), cfg.L2.LineSize)
	for i := 0; i < cfg.Procs; i++ {
		pid := mem.ProcID(int(id)*cfg.Procs + i)
		pr := &Proc{
			ID:      pid,
			n:       n,
			coro:    sim.NewCoro(fmt.Sprintf("node%d.cpu%d", id, i)),
			l1:      cache.New(fmt.Sprintf("n%dp%d.L1", id, i), cfg.L1),
			l2:      cache.New(fmt.Sprintf("n%dp%d.L2", id, i), cfg.L2),
			tlb:     newTLB(cfg.TLBEntries),
			quantum: cfg.Quantum,
		}
		pr.l2.ShareFilter(n.l2Filter)
		pr.bind()
		n.Procs = append(n.Procs, pr)
	}
	return n
}

// Deliver implements network.Handler: coherence traffic goes to the
// controller, paging traffic to the kernel.
func (n *Node) Deliver(src mem.NodeID, msg network.Message) {
	if n.Ctrl.Deliver(src, msg) {
		return
	}
	if n.Kern.Deliver(src, msg) {
		return
	}
	panic(fmt.Sprintf("node %d: unroutable message %T from %d", n.ID, msg, src))
}

// busTransaction arbitrates, snoops and dispatches one L2 miss or
// upgrade for the requester's pending access (p.busLA/p.busWrite). It
// runs in engine context at the requester's local time and resumes the
// blocked processor when the access completes; the retranslate verdict
// (p.busRetr) is true when the frame vanished mid-flight (a page
// migration replaced it) and the processor must redo its translation.
//
// The whole path — dispatch, completion, remote fill, conflict retry —
// runs on per-processor event objects embedded in Proc: busAccess
// blocks the processor, so at most one transaction per processor is
// outstanding and none of these steps allocates.
func (n *Node) busTransaction(p *Proc) {
	la, write := p.busLA, p.busWrite
	t := n.e.Now()
	grant := n.addrBus.Acquire(t, n.tm.BusArb+n.tm.BusAddr)
	t = grant + n.tm.BusArb + n.tm.BusAddr

	f := la.Frame(n.geom)
	ln := la.Line(n.geom)
	ent, pitCost := n.Ctrl.PIT.Lookup(f)
	t += pitCost
	if ent == nil || !ent.Valid() {
		// The frame was unbound between the processor's translation
		// and this transaction (page-out or migration): retry through
		// the TLB.
		n.resumeBus(p, t, true)
		return
	}

	// Snoop the other processors. Effects are applied immediately:
	// writes invalidate local copies, reads downgrade them.
	snoopSt, snoopDirty := n.snoop(p, la, write)

	localOK := false
	switch ent.Mode {
	case pit.ModeLocal:
		localOK = true
	case pit.ModeSCOMA:
		tag := ent.Tags[ln]
		if write {
			localOK = tag == pit.TagExclusive || snoopSt >= cache.Exclusive
		} else {
			localOK = tag == pit.TagExclusive || tag == pit.TagShared || snoopSt != cache.Invalid
		}
	case pit.ModeLANUMA:
		if write {
			localOK = snoopSt >= cache.Exclusive
		} else {
			localOK = snoopSt != cache.Invalid
		}
	default:
		panic(fmt.Sprintf("node %d: processor access to %v frame %d", n.ID, ent.Mode, f))
	}

	n.Ctrl.PIT.Touch(f, ln, t, false)

	switch ent.Mode {
	case pit.ModeLocal:
		n.BusStats.LocalFills++
	case pit.ModeSCOMA:
		if localOK {
			n.BusStats.SCOMALocal++
		} else {
			n.BusStats.SCOMARemote++
		}
	case pit.ModeLANUMA:
		if localOK {
			n.BusStats.LANUMALocal++
		} else {
			n.BusStats.LANUMARemote++
		}
	}

	if localOK {
		if snoopSt != cache.Invalid {
			// Cache-to-cache intervention.
			t += n.tm.Interv
			if snoopDirty && !write {
				// Read intervention on a dirty line: the data is also
				// written back (locally for S-COMA/Local frames,
				// to the home for LA-NUMA frames).
				n.Ctrl.ClientWriteback(f, ln, ent)
			}
		} else {
			t = n.memRes.Acquire(t, n.tm.MemRead) + n.tm.MemRead
		}
		t = n.dataBus.Acquire(t, n.tm.BusData) + n.tm.BusData

		st := cache.Shared
		switch {
		case write:
			st = cache.Modified
		case snoopSt != cache.Invalid:
			st = cache.Shared
		case ent.Mode == pit.ModeLocal:
			st = cache.Exclusive
		case ent.Mode == pit.ModeSCOMA && ent.Tags[ln] == pit.TagExclusive:
			st = cache.Exclusive
		}
		n.finishFill(p, la, st, t)
		return
	}

	// Remote: hand to the controller's client side via the processor's
	// embedded Filler.
	p.fetch.gp = ent.GPage
	n.Ctrl.ClientFetch(t, f, ln, write, ent, &p.fetch)
}

// resumeBus schedules the blocked requester's resumption at t with the
// given retranslate verdict, on the processor's embedded event.
func (n *Node) resumeBus(p *Proc, t sim.Time, retranslate bool) {
	p.busRetr = retranslate
	n.e.AtEvent(t, &p.resumeEv)
}

// snoop probes the caches of every processor but the requester (all of
// them for a controller's Retrieve, which passes nil) for la, applying
// invalidations (write) or downgrades (read). It returns the strongest
// state found and whether any copy was Modified. When the node's L2
// filter proves that no cache holds la, there is nothing to probe.
func (n *Node) snoop(requester *Proc, la mem.PAddr, write bool) (cache.State, bool) {
	best := cache.Invalid
	dirty := false
	if !n.l2Filter.MayHold(la) {
		return best, dirty
	}
	for _, q := range n.Procs {
		if q == requester {
			continue
		}
		s1 := q.l1.Probe(la)
		s2 := q.l2.Probe(la)
		st := s1
		if s2 > st {
			st = s2
		}
		if st == cache.Invalid {
			continue
		}
		if st > best {
			best = st
		}
		if s1 == cache.Modified || s2 == cache.Modified {
			dirty = true
		}
		if write {
			q.l1.Invalidate(la)
			q.l2.Invalidate(la)
		} else {
			if s1 > cache.Shared {
				q.l1.SetState(la, cache.Shared)
			}
			if s2 > cache.Shared {
				q.l2.SetState(la, cache.Shared)
			}
		}
	}
	return best, dirty
}

// finishFill inserts the line into the requester's caches (handling
// victims and their writebacks) and resumes it at time t.
func (n *Node) finishFill(p *Proc, la mem.PAddr, st cache.State, t sim.Time) {
	v2 := p.l2.Insert(la, st)
	if v2.Valid {
		l1st := p.l1.Invalidate(v2.Addr)
		if v2.Dirty || l1st == cache.Modified {
			vf := v2.Addr.Frame(n.geom)
			if vent := n.Ctrl.PIT.Entry(vf); vent != nil && vent.Valid() {
				n.Ctrl.ClientWriteback(vf, v2.Addr.Line(n.geom), vent)
			}
		}
	}
	l1st := st
	if l1st == cache.Modified {
		// L1 takes the dirty data; L2 keeps Modified too (the L1 copy
		// is the freshest, merged on L1 eviction).
	}
	v1 := p.l1.Insert(la, l1st)
	if v1.Valid && v1.Dirty {
		// Dirty L1 victim folds into L2 under inclusion.
		p.l2.SetState(v1.Addr, cache.Modified)
	}
	n.resumeBus(p, t, false)
}

// Retrieve implements coherence.Local: a controller-initiated bus
// transaction that collects the latest copy of la from the processor
// caches, downgrading or invalidating them.
func (n *Node) Retrieve(pa mem.PAddr, inval bool, r coherence.Retrieval) {
	t := n.e.Now()
	grant := n.addrBus.Acquire(t, n.tm.BusArb+n.tm.BusAddr)
	t = grant + n.tm.BusArb + n.tm.BusAddr

	st, dirty := n.snoop(nil, pa, inval)
	if st != cache.Invalid {
		t += n.tm.Interv
	}
	if dirty {
		t = n.dataBus.Acquire(t, n.tm.BusData) + n.tm.BusData
	}
	ev := n.freeRetrieve.Get()
	ev.n, ev.r, ev.dirty = n, r, dirty
	n.e.AtEvent(t, ev)
}

// retrieveEvent is a pooled completion event for Retrieve: it defers
// the caller's continuation to the bus-settled time.
type retrieveEvent struct {
	n     *Node
	r     coherence.Retrieval
	dirty bool
}

// OnEvent implements sim.EventHandler.
func (ev *retrieveEvent) OnEvent(now sim.Time) {
	n, r, dirty := ev.n, ev.r, ev.dirty
	n.freeRetrieve.Put(ev)
	r.Retrieved(now, dirty)
}

// InvalidateFrameLines implements coherence.Local: bulk-invalidate
// every cached line of frame f, returning the dirty line indexes in
// ascending order. The returned slice is a reused buffer, valid only
// until the next call on this node (callers consume it immediately:
// FlushPage folds it into its own scratch, the migration path ignores
// it).
func (n *Node) InvalidateFrameLines(f mem.FrameID) []int {
	if n.invScratch == nil {
		n.invScratch = make([]bool, n.geom.LinesPerPage())
	}
	ds := n.invScratch
	for _, q := range n.Procs {
		for _, pa := range q.l1.InvalidateFrame(n.geom, f) {
			ds[pa.Line(n.geom)] = true
		}
		for _, pa := range q.l2.InvalidateFrame(n.geom, f) {
			ds[pa.Line(n.geom)] = true
		}
	}
	out := n.invOut[:0]
	for ln := 0; ln < n.geom.LinesPerPage(); ln++ {
		if ds[ln] {
			out = append(out, ln)
			ds[ln] = false
		}
	}
	n.invOut = out
	return out
}

// CheckCaches audits the node's cache hierarchy: every valid L1 line is
// valid in the same processor's L2 (the inclusion the snoop filter
// relies on), and every filter bucket equals a recount of the valid L2
// lines. It returns the first violation as a one-line error.
func (n *Node) CheckCaches() error {
	l2s := make([]*cache.Cache, len(n.Procs))
	for i, p := range n.Procs {
		if err := p.l1.CheckIncludedIn(p.l2); err != nil {
			return fmt.Errorf("node %d: %w", n.ID, err)
		}
		l2s[i] = p.l2
	}
	if err := n.l2Filter.Check(l2s...); err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	return nil
}

// TLBShootdown implements kernel.NodeHW: invalidate vp in every local
// TLB (never cross-node — PRISM's translations are node-private).
func (n *Node) TLBShootdown(vp mem.VPage) {
	for _, q := range n.Procs {
		q.tlb.invalidate(vp)
	}
}

// RegisterMetrics registers this node's hardware with the telemetry
// registry: aggregated processor and cache counters, the per-mode bus
// fill split, bus/memory occupancy, and — via the controller and
// kernel — the coherence, sync, PIT, directory and paging components.
func (n *Node) RegisterMetrics(r *metrics.Registry) {
	nd := int(n.ID)

	procSum := func(f func(*ProcStats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, p := range n.Procs {
				t += f(&p.Stats)
			}
			return t
		}
	}
	r.CounterFunc(nd, "proc", "reads", procSum(func(s *ProcStats) uint64 { return s.Reads }))
	r.CounterFunc(nd, "proc", "writes", procSum(func(s *ProcStats) uint64 { return s.Writes }))
	r.CounterFunc(nd, "proc", "l1_misses", procSum(func(s *ProcStats) uint64 { return s.L1Misses }))
	r.CounterFunc(nd, "proc", "l2_misses", procSum(func(s *ProcStats) uint64 { return s.L2Misses }))
	r.CounterFunc(nd, "proc", "upgrades", procSum(func(s *ProcStats) uint64 { return s.Upgrades }))
	r.CounterFunc(nd, "proc", "tlb_misses", procSum(func(s *ProcStats) uint64 { return s.TLBMisses }))
	r.CounterFunc(nd, "proc", "page_faults", procSum(func(s *ProcStats) uint64 { return s.PageFaults }))
	r.CounterFunc(nd, "proc", "access_faults", procSum(func(s *ProcStats) uint64 { return s.AccessFaults }))
	r.CounterFunc(nd, "proc", "sync_ops", procSum(func(s *ProcStats) uint64 { return s.SyncOps }))
	r.CounterFunc(nd, "proc", "stall_cycles", procSum(func(s *ProcStats) uint64 { return uint64(s.StallCycles) }))
	r.CounterFunc(nd, "proc", "busy_cycles", procSum(func(s *ProcStats) uint64 { return uint64(s.BusyCycles) }))

	cacheSum := func(level func(*Proc) *cache.Cache, f func(*cache.Stats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, p := range n.Procs {
				t += f(&level(p).Stats)
			}
			return t
		}
	}
	for _, lvl := range []struct {
		prefix string
		get    func(*Proc) *cache.Cache
	}{
		{"l1", func(p *Proc) *cache.Cache { return p.l1 }},
		{"l2", func(p *Proc) *cache.Cache { return p.l2 }},
	} {
		get := lvl.get
		r.CounterFunc(nd, "cache", lvl.prefix+"_reads", cacheSum(get, func(s *cache.Stats) uint64 { return s.Reads }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_writes", cacheSum(get, func(s *cache.Stats) uint64 { return s.Writes }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_read_misses", cacheSum(get, func(s *cache.Stats) uint64 { return s.ReadMisses }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_write_misses", cacheSum(get, func(s *cache.Stats) uint64 { return s.WriteMisses }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_upgrades", cacheSum(get, func(s *cache.Stats) uint64 { return s.Upgrades }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_evictions", cacheSum(get, func(s *cache.Stats) uint64 { return s.Evictions }))
		r.CounterFunc(nd, "cache", lvl.prefix+"_writebacks", cacheSum(get, func(s *cache.Stats) uint64 { return s.Writebacks }))
	}
	r.CounterFunc(nd, "cache", "fill_local_mode", func() uint64 { return n.BusStats.LocalFills })
	r.CounterFunc(nd, "cache", "fill_scoma_local", func() uint64 { return n.BusStats.SCOMALocal })
	r.CounterFunc(nd, "cache", "fill_scoma_remote", func() uint64 { return n.BusStats.SCOMARemote })
	r.CounterFunc(nd, "cache", "fill_lanuma_local", func() uint64 { return n.BusStats.LANUMALocal })
	r.CounterFunc(nd, "cache", "fill_lanuma_remote", func() uint64 { return n.BusStats.LANUMARemote })

	for _, res := range []struct {
		name string
		r    *sim.Resource
	}{
		{"addr_bus", &n.addrBus},
		{"data_bus", &n.dataBus},
		{"mem", &n.memRes},
	} {
		rr := res.r
		r.CounterFunc(nd, "bus", res.name+"_grants", func() uint64 { return rr.Grants })
		r.CounterFunc(nd, "bus", res.name+"_busy_cycles", func() uint64 { return uint64(rr.BusyTotal) })
		r.CounterFunc(nd, "bus", res.name+"_wait_cycles", func() uint64 { return uint64(rr.WaitTotal) })
	}

	n.Ctrl.RegisterMetrics(r)
	n.Kern.RegisterMetrics(r)
}

// ResetStats clears the node's measurement state, following the
// machine-wide reset contract: processor, cache and bus counters
// clear, cache contents and occupancy horizons persist. The
// controller and kernel reset through their own ResetStats.
func (n *Node) ResetStats() {
	for _, p := range n.Procs {
		p.Stats.Reset()
		p.l1.ResetStats()
		p.l2.ResetStats()
	}
	n.BusStats.Reset()
	n.addrBus.Reset()
	n.dataBus.Reset()
	n.memRes.Reset()
	n.Ctrl.ResetStats()
	n.Kern.ResetStats()
}
