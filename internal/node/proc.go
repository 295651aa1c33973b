package node

import (
	"fmt"

	"prism/internal/cache"
	"prism/internal/mem"
	"prism/internal/pool"
	"prism/internal/sim"
)

// ProcStats counts one processor's activity.
type ProcStats struct {
	Reads        uint64
	Writes       uint64
	L1Misses     uint64
	L2Misses     uint64 // bus transactions
	Upgrades     uint64
	TLBMisses    uint64
	PageFaults   uint64
	AccessFaults uint64 // firewall-rejected accesses
	SyncOps      uint64
	StallCycles  sim.Time
	BusyCycles   sim.Time // compute + hit time
}

// Refs returns total memory references.
func (s *ProcStats) Refs() uint64 { return s.Reads + s.Writes }

// Reset zeroes the counters.
func (s *ProcStats) Reset() { *s = ProcStats{} }

// Tracer observes every memory reference a processor issues. Set one
// with Proc.SetTracer (usually via core.Machine.SetTracer) to collect
// reference traces; nil (the default) costs nothing.
type Tracer interface {
	Ref(p mem.ProcID, va mem.VAddr, write bool, at sim.Time)
}

// Proc is one simulated processor. Workload code runs on the
// processor's coroutine and calls Read/Write/Compute/Barrier/Lock;
// everything else is timing model.
type Proc struct {
	ID mem.ProcID

	n       *Node
	coro    *sim.Coro
	l1, l2  *cache.Cache
	tlb     *tlb
	now     sim.Time
	quantum sim.Time
	tracer  Tracer

	// Sync is the machine-wide synchronization domain (set by core).
	Sync *SyncDomain

	// Pending-access state plus embedded event objects and one-time
	// bound callbacks: the blocking paths (busAccess, fault, HWLock)
	// have at most one transaction outstanding per processor, so their
	// events live inline in the Proc and scheduling allocates nothing.
	// See busTransaction.
	busLA      mem.PAddr
	busWrite   bool
	busRetr    bool
	busEv      busEvent
	resumeEv   busResumeEvent
	fetch      procFetch
	faultEv    faultEvent
	faultOK    bool
	faultDone  func(at sim.Time, f mem.FrameID, ok bool)
	lockEv     hwLockEvent
	lockDone   func(at sim.Time)
	freeUnlock pool.Free[hwUnlockEvent] // posted-unlock events

	// replay marks checkpoint-replay mode (core/checkpoint.go): memory
	// references and compute become no-ops and hardware sync operations
	// short-circuit through the sync hook's gate log, so the coroutine
	// re-traverses the workload's control flow without re-simulating it.
	replay bool

	Stats ProcStats
}

// SetReplay switches the processor into (or out of) replay mode.
func (p *Proc) SetReplay(on bool) { p.replay = on }

// bind wires the embedded event objects and bound callbacks to the
// processor (called once from node.New).
func (p *Proc) bind() {
	p.busEv.p = p
	p.resumeEv.p = p
	p.fetch.p = p
	p.faultEv.p = p
	p.lockEv.p = p
	p.faultDone = func(at sim.Time, _ mem.FrameID, ok bool) {
		p.now = at
		p.faultOK = ok
		p.coro.Step()
	}
	p.lockDone = func(at sim.Time) {
		p.now = at
		p.coro.Step()
	}
}

// OnEvent implements sim.EventHandler: advance the processor's local
// clock to the event time and step its coroutine. Engine-side code
// (core's page-migration contexts) uses it to resume a parked
// processor without allocating a wake-up closure.
func (p *Proc) OnEvent(now sim.Time) {
	p.AdvanceTo(now)
	p.coro.Step()
}

// busEvent dispatches the processor's pending bus transaction in
// engine context.
type busEvent struct{ p *Proc }

// OnEvent implements sim.EventHandler.
func (ev *busEvent) OnEvent(now sim.Time) { ev.p.n.busTransaction(ev.p) }

// busResumeEvent completes a bus transaction: the retranslate verdict
// was recorded in p.busRetr when the event was scheduled.
type busResumeEvent struct{ p *Proc }

// OnEvent implements sim.EventHandler.
func (ev *busResumeEvent) OnEvent(now sim.Time) {
	p := ev.p
	p.now = now
	p.coro.Step()
}

// procFetch is the processor's coherence.Filler: the continuation of a
// remote ClientFetch for the pending access (p.busLA/p.busWrite).
type procFetch struct {
	p  *Proc
	gp mem.GPage // page identity at dispatch, to detect repurposed frames
}

// Fill completes the remote fetch: validate the frame, insert the
// line, resume the processor.
func (fh *procFetch) Fill(at sim.Time, excl, fault bool) {
	p := fh.p
	n := p.n
	la, write := p.busLA, p.busWrite
	if fault {
		p.Stats.AccessFaults++
		p.now = at
		p.busRetr = false
		p.coro.Step()
		return
	}
	f := la.Frame(n.geom)
	if cur := n.Ctrl.PIT.Entry(f); cur == nil || !cur.Valid() || cur.GPage != fh.gp {
		// The frame was repurposed while the fetch was in flight
		// (migration replaced the mapping): don't insert stale state;
		// let the processor retranslate.
		p.now = at
		p.busRetr = true
		p.coro.Step()
		return
	}
	st := cache.Shared
	if write {
		st = cache.Modified
	} else if excl {
		st = cache.Exclusive
	}
	done := n.dataBus.Acquire(at, n.tm.BusData) + n.tm.BusData
	n.finishFill(p, la, st, done)
}

// Retry re-dispatches the pending access after a conflicting
// transaction for the same line completed.
func (fh *procFetch) Retry(at sim.Time) {
	fh.p.n.e.AtEvent(at, &fh.p.busEv)
}

// faultEvent enters the kernel's fault handler in engine context.
type faultEvent struct {
	p  *Proc
	vp mem.VPage
}

// OnEvent implements sim.EventHandler.
func (ev *faultEvent) OnEvent(now sim.Time) {
	ev.p.n.Kern.HandleFault(ev.vp, ev.p.faultDone)
}

// hwLockEvent issues a hardware lock acquire in engine context.
type hwLockEvent struct {
	p  *Proc
	f  mem.FrameID
	ln int
}

// OnEvent implements sim.EventHandler.
func (ev *hwLockEvent) OnEvent(now sim.Time) {
	p := ev.p
	ent, cost := p.n.Ctrl.PIT.Lookup(ev.f)
	p.n.Ctrl.LockAcquire(now+cost, ev.f, ev.ln, ent, p.lockDone)
}

// hwUnlockEvent issues a posted hardware lock release. Releases don't
// block the processor, so several can be in flight; they ride a small
// per-processor pool.
type hwUnlockEvent struct {
	p  *Proc
	f  mem.FrameID
	ln int
}

// OnEvent implements sim.EventHandler.
func (ev *hwUnlockEvent) OnEvent(now sim.Time) {
	p := ev.p
	ent, cost := p.n.Ctrl.PIT.Lookup(ev.f)
	p.n.Ctrl.LockRelease(now+cost, ev.f, ev.ln, ent)
	p.freeUnlock.Put(ev)
}

// SetTracer installs (or clears, with nil) a reference tracer.
func (p *Proc) SetTracer(t Tracer) { p.tracer = t }

// Node returns the processor's node.
func (p *Proc) Node() *Node { return p.n }

// Coro exposes the coroutine context (used by core to start/step).
func (p *Proc) Coro() *sim.Coro { return p.coro }

// Now returns the processor's local clock.
func (p *Proc) Now() sim.Time { return p.now }

// AdvanceTo moves the local clock forward to at (never backward).
// Engine-context callers use it before Step when resuming a processor
// they blocked.
func (p *Proc) AdvanceTo(at sim.Time) {
	if at > p.now {
		p.now = at
	}
}

// L1 and L2 expose the caches for statistics.
func (p *Proc) L1() *cache.Cache { return p.l1 }

// L2 returns the second-level cache.
func (p *Proc) L2() *cache.Cache { return p.l2 }

// Compute advances the local clock by c cycles of processor-internal
// work (the instruction stream between memory references).
func (p *Proc) Compute(c sim.Time) {
	if p.replay {
		return
	}
	p.now += c
	p.Stats.BusyCycles += c
	p.maybeYield()
}

// Read issues a load to virtual address va.
func (p *Proc) Read(va mem.VAddr) {
	if p.replay {
		return
	}
	p.Stats.Reads++
	p.access(va, false)
}

// Write issues a store to virtual address va.
func (p *Proc) Write(va mem.VAddr) {
	if p.replay {
		return
	}
	p.Stats.Writes++
	p.access(va, true)
}

// ReadRange touches every cache line in [va, va+bytes).
func (p *Proc) ReadRange(va mem.VAddr, bytes int) {
	ls := p.n.geom.LineSize
	for off := 0; off < bytes; off += ls {
		p.Read(va + mem.VAddr(off))
	}
}

// WriteRange touches every cache line in [va, va+bytes) with stores.
func (p *Proc) WriteRange(va mem.VAddr, bytes int) {
	ls := p.n.geom.LineSize
	for off := 0; off < bytes; off += ls {
		p.Write(va + mem.VAddr(off))
	}
}

// Barrier joins machine-wide barrier id (workload context).
func (p *Proc) Barrier(id int) {
	if !p.replay {
		p.Stats.SyncOps++
	}
	p.Sync.Barrier(p, id)
}

// Lock acquires machine-wide lock id.
func (p *Proc) Lock(id int) {
	if !p.replay {
		p.Stats.SyncOps++
	}
	p.Sync.Lock(p, id)
}

// Unlock releases machine-wide lock id.
func (p *Proc) Unlock(id int) {
	p.Sync.Unlock(p, id)
}

// maybeYield bounds clock skew: if the processor has run more than a
// quantum ahead of global time it waits for the engine to catch up.
func (p *Proc) maybeYield() {
	if p.now > p.n.e.Now()+p.quantum {
		p.coro.WaitUntil(p.n.e, p.now)
	}
}

// access is the full reference path: TLB → L1 → L2 → bus. The outer
// loop retries from translation when a bus transaction reports that
// the frame vanished mid-flight (page migration or page-out).
func (p *Proc) access(va mem.VAddr, write bool) {
	if p.tracer != nil {
		p.tracer.Ref(p.ID, va, write, p.now)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			panic(fmt.Sprintf("proc %d: access to %v cannot settle", p.ID, va))
		}
		if !p.accessOnce(va, write) {
			return
		}
	}
}

// accessOnce performs one attempt; it reports whether the access must
// be retried from translation.
func (p *Proc) accessOnce(va mem.VAddr, write bool) (retranslate bool) {
	g := p.n.geom
	tm := p.n.tm
	p.now += tm.L1Hit
	p.Stats.BusyCycles += tm.L1Hit
	p.maybeYield()

	vp := va.Page(g)
	f, ok := p.tlb.lookup(vp)
	if !ok {
		pte, mapped := p.n.Kern.PTE(vp)
		if !mapped {
			p.Stats.PageFaults++
			p.fault(vp)
			pte, mapped = p.n.Kern.PTE(vp)
			if !mapped {
				panic(fmt.Sprintf("proc %d: segmentation fault at %v", p.ID, va))
			}
		}
		p.Stats.TLBMisses++
		p.now += tm.TLBMiss
		p.Stats.StallCycles += tm.TLBMiss
		p.tlb.insert(vp, pte.Frame)
		f = pte.Frame
	}

	la := mem.NewPAddr(g, f, va.PageOffset(g)).LineAddr(g)

	switch p.l1.Access(la, write) {
	case cache.Hit:
		return
	case cache.HitUpgrade:
		// Write to a Shared L1 line: resolve through L2.
		if p.l2.Probe(la).Writable() {
			p.now += tm.L2Hit
			p.Stats.StallCycles += tm.L2Hit
			p.l2.SetState(la, cache.Modified)
			p.l1.SetState(la, cache.Modified)
			return
		}
		p.Stats.Upgrades++
		return p.busAccess(la, true)
	case cache.Miss:
		p.Stats.L1Misses++
	}

	switch p.l2.Access(la, write) {
	case cache.Hit:
		p.now += tm.L2Hit
		p.Stats.StallCycles += tm.L2Hit
		st := cache.Shared
		switch p.l2.Probe(la) {
		case cache.Modified, cache.Exclusive:
			if write {
				st = cache.Modified
			} else {
				st = cache.Exclusive
			}
		}
		if write {
			p.l2.SetState(la, cache.Modified)
			st = cache.Modified
		}
		v := p.l1.Insert(la, st)
		if v.Valid && v.Dirty {
			p.l2.SetState(v.Addr, cache.Modified)
		}
		return
	case cache.HitUpgrade:
		p.Stats.Upgrades++
		return p.busAccess(la, true)
	case cache.Miss:
		p.Stats.L2Misses++
		return p.busAccess(la, write)
	}
	return false
}

// busAccess blocks the processor on a bus transaction. It reports
// whether the access must be retried from translation (the frame
// vanished under a page migration or page-out).
func (p *Proc) busAccess(la mem.PAddr, write bool) (retranslate bool) {
	start := p.now
	p.busLA, p.busWrite = la, write
	p.n.e.AtEvent(p.now, &p.busEv)
	p.coro.Block()
	p.Stats.StallCycles += p.now - start
	return p.busRetr
}

// translate resolves va to a frame, taking TLB misses and page faults
// like a normal access (shared by the hardware-lock path).
func (p *Proc) translate(va mem.VAddr) mem.FrameID {
	g := p.n.geom
	tm := p.n.tm
	vp := va.Page(g)
	f, ok := p.tlb.lookup(vp)
	if ok {
		return f
	}
	pte, mapped := p.n.Kern.PTE(vp)
	if !mapped {
		p.Stats.PageFaults++
		p.fault(vp)
		pte, mapped = p.n.Kern.PTE(vp)
		if !mapped {
			panic(fmt.Sprintf("proc %d: segmentation fault at %v", p.ID, va))
		}
	}
	p.Stats.TLBMisses++
	p.now += tm.TLBMiss
	p.Stats.StallCycles += tm.TLBMiss
	p.tlb.insert(vp, pte.Frame)
	return pte.Frame
}

// HWLock acquires the hardware queue lock backing va's sync-page line
// (§3.2 synchronization pages), blocking until the home grants it.
func (p *Proc) HWLock(va mem.VAddr) {
	if p.replay {
		// Consume the grant gate: blocks until the recorded holder has
		// released, then returns with the lock logically held.
		if p.Sync != nil && p.Sync.hook != nil {
			p.Sync.hook.Gate(p, 'H', uint64(va))
		}
		return
	}
	g := p.n.geom
	p.now += p.n.tm.L1Hit
	f := p.translate(va)
	ln := mem.NewPAddr(g, f, va.PageOffset(g)).Line(g)
	start := p.now
	p.lockEv.f, p.lockEv.ln = f, ln
	p.n.e.AtEvent(p.now, &p.lockEv)
	p.coro.Block()
	p.Stats.StallCycles += p.now - start
	if p.Sync != nil && p.Sync.hook != nil {
		p.Sync.hook.Gate(p, 'H', uint64(va))
	}
}

// HWUnlock releases the hardware queue lock (posted; the processor
// does not wait for the home).
func (p *Proc) HWUnlock(va mem.VAddr) {
	if p.Sync != nil && p.Sync.hook != nil {
		p.Sync.hook.Gate(p, 'U', uint64(va))
	}
	if p.replay {
		return
	}
	g := p.n.geom
	p.now += p.n.tm.L1Hit
	f := p.translate(va)
	ln := mem.NewPAddr(g, f, va.PageOffset(g)).Line(g)
	ev := p.freeUnlock.Get()
	ev.p, ev.f, ev.ln = p, f, ln
	p.n.e.AtEvent(p.now, ev)
	p.maybeYield()
}

// fault blocks the processor on a page fault.
func (p *Proc) fault(vp mem.VPage) {
	start := p.now
	p.faultEv.vp = vp
	p.n.e.AtEvent(p.now, &p.faultEv)
	p.coro.Block()
	p.Stats.StallCycles += p.now - start
	if !p.faultOK {
		panic(fmt.Sprintf("proc %d: unresolvable page fault on %v", p.ID, vp))
	}
}
