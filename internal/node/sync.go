package node

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/sim"
	"prism/internal/timing"
)

// SyncDomain provides machine-wide barriers and locks. Each primitive
// is backed by a cache line in a globally shared "sync" segment, and
// every operation issues real coherence traffic against that line
// (a write to acquire/arrive, a read on release), so synchronization
// contends for the memory system exactly like data does. The blocking
// itself uses engine wait queues rather than spinning, which keeps the
// simulation free of livelock while preserving the traffic pattern.
type SyncDomain struct {
	e     *sim.Engine
	tm    *timing.T
	total int
	base  mem.VAddr
	geom  mem.Geometry

	// hwBase, when non-zero, routes locks through Sync-mode pages
	// (§3.2): hardware queue locks at the home controller instead of
	// test-and-set over coherent lines. Barriers always use coherent
	// lines.
	hwBase mem.VAddr

	barriers map[int]*barrierState
	locks    map[int]*lockState

	// hook, when non-nil, observes synchronization ordering (gate
	// events) and barrier fills. It is installed only while a
	// checkpoint is being recorded or replayed (core/checkpoint.go);
	// normal runs never test it beyond one nil check per sync op.
	hook SyncHook

	// BarrierOps and LockOps count completed operations.
	BarrierOps uint64
	LockOps    uint64
}

// SyncHook observes the synchronization order of a run. Gate is called
// at each ordering point — kind 'B' (barrier arrival), 'L' (software
// lock acquisition), 'H' (hardware lock grant), 'U' (unlock) — and
// BarrierFill at the instant the last processor arrives at a barrier
// (the only point the machine can quiesce at). During replay, Gate
// blocks the calling processor until the recorded log says it is its
// turn, which reproduces the recorded synchronization order exactly.
type SyncHook interface {
	Gate(p *Proc, kind byte, id uint64)
	BarrierFill(p *Proc, id int)
}

// SetHook installs (or clears, with nil) the synchronization hook.
func (s *SyncDomain) SetHook(h SyncHook) { s.hook = h }

// EnableHardwareLocks routes Lock/Unlock through the sync-page
// protocol backed by the segment at base.
func (s *SyncDomain) EnableHardwareLocks(base mem.VAddr) { s.hwBase = base }

// ResetStats clears the operation counters, following the
// machine-wide reset contract: measurement counters clear, structural
// state (barrier epochs, lock hold state, wait queues) persists.
func (s *SyncDomain) ResetStats() {
	s.BarrierOps = 0
	s.LockOps = 0
}

// RegisterMetrics registers the machine-scope sync operation counts.
func (s *SyncDomain) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc(metrics.MachineScope, "sync", "barrier_ops", func() uint64 { return s.BarrierOps })
	r.CounterFunc(metrics.MachineScope, "sync", "lock_ops", func() uint64 { return s.LockOps })
}

const (
	// maxLocks bounds lock ids; barrier lines sit above lock lines in
	// the sync segment.
	maxLocks    = 1 << 15
	maxBarriers = 1 << 12
)

// HWLockSegmentBytes is the size of the hardware-lock (Sync-mode)
// segment a machine maps when Config.HardwareSync is on.
func HWLockSegmentBytes(geom mem.Geometry) uint64 {
	return uint64(maxLocks) * uint64(geom.LineSize)
}

// SyncSegmentBytes is the size of the sync segment a machine must map.
func SyncSegmentBytes(geom mem.Geometry) uint64 {
	return uint64(maxLocks+maxBarriers) * uint64(geom.LineSize)
}

type barrierState struct {
	count   int
	waiters []*Proc
	epoch   uint64
}

type lockState struct {
	held bool
	q    sim.Queue
}

// NewSyncDomain builds the domain for total processors, with sync
// lines at virtual base (the start of the machine's sync segment).
func NewSyncDomain(e *sim.Engine, tm *timing.T, geom mem.Geometry, total int, base mem.VAddr) *SyncDomain {
	return &SyncDomain{
		e: e, tm: tm, total: total, base: base, geom: geom,
		barriers: make(map[int]*barrierState),
		locks:    make(map[int]*lockState),
	}
}

func (s *SyncDomain) lockAddr(id int) mem.VAddr {
	if id < 0 || id >= maxLocks {
		panic(fmt.Sprintf("sync: lock id %d out of range", id))
	}
	return s.base + mem.VAddr(id*s.geom.LineSize)
}

func (s *SyncDomain) barrierAddr(id int) mem.VAddr {
	if id < 0 || id >= maxBarriers {
		panic(fmt.Sprintf("sync: barrier id %d out of range", id))
	}
	return s.base + mem.VAddr((maxLocks+id)*s.geom.LineSize)
}

// Barrier joins barrier id; returns when all processors have arrived.
// Called from workload (processor-coroutine) context.
func (s *SyncDomain) Barrier(p *Proc, id int) {
	addr := s.barrierAddr(id)
	// Arrival: fetch the barrier line exclusively and bump the count.
	p.Write(addr)
	p.Compute(s.tm.SyncOp)

	b := s.barriers[id]
	if b == nil {
		b = &barrierState{}
		s.barriers[id] = b
	}
	if s.hook != nil {
		s.hook.Gate(p, 'B', uint64(id))
	}
	b.count++
	if b.count == s.total {
		b.count = 0
		b.epoch++
		s.BarrierOps++
		// Release: wake everyone; each reloads the (invalidated)
		// barrier line on the way out. Waiter i steps at +SyncOp+2i,
		// in arrival order.
		now := s.e.Now()
		for i, w := range b.waiters {
			s.e.StepAt(now+s.tm.SyncOp+sim.Time(2*i), w.coro)
		}
		b.waiters = b.waiters[:0]
		if s.hook != nil {
			s.hook.BarrierFill(p, id)
		}
	} else {
		b.waiters = append(b.waiters, p)
		p.coro.Block()
		if t := s.e.Now(); t > p.now {
			p.now = t
		}
	}
	p.Read(addr)
}

// Lock acquires lock id with FIFO ordering.
func (s *SyncDomain) Lock(p *Proc, id int) {
	if s.hwBase != 0 {
		if id < 0 || id >= maxLocks {
			panic(fmt.Sprintf("sync: lock id %d out of range", id))
		}
		s.LockOps++
		p.HWLock(s.hwBase + mem.VAddr(id*s.geom.LineSize))
		return
	}
	l := s.locks[id]
	if l == nil {
		l = &lockState{}
		s.locks[id] = l
	}
	// Replay consumes the acquisition gate before testing held: the
	// gate blocks this processor until the recorded holder has run its
	// 'U' gate, so the test below sees held == false exactly when the
	// recorded run did.
	if s.hook != nil && p.replay {
		s.hook.Gate(p, 'L', uint64(id))
	}
	// Test-and-test&set semantics: a contended release wakes every
	// spinner; each re-reads the (invalidated) lock line — the re-fetch
	// storm queue locks were invented to avoid — and one wins the
	// exclusive test&set.
	for l.held {
		l.q.Wait(p.coro)
		if t := s.e.Now(); t > p.now {
			p.now = t
		}
		p.Read(s.lockAddr(id))
	}
	if s.hook != nil && !p.replay {
		s.hook.Gate(p, 'L', uint64(id))
	}
	l.held = true
	s.LockOps++
	// Test-and-set: exclusive fetch of the lock line.
	p.Write(s.lockAddr(id))
	p.Compute(s.tm.SyncOp)
}

// Unlock releases lock id, waking the next waiter.
func (s *SyncDomain) Unlock(p *Proc, id int) {
	if s.hwBase != 0 {
		p.HWUnlock(s.hwBase + mem.VAddr(id*s.geom.LineSize))
		return
	}
	l := s.locks[id]
	if l == nil || !l.held {
		panic(fmt.Sprintf("sync: unlock of unheld lock %d", id))
	}
	// The unlock gate orders this release before any dependent
	// acquisition in the recorded log (same site in both modes).
	if s.hook != nil {
		s.hook.Gate(p, 'U', uint64(id))
	}
	// Release store.
	p.Write(s.lockAddr(id))
	p.Compute(s.tm.SyncOp)
	l.held = false
	// All spinners race for the lock; the engine's deterministic order
	// picks the winner (the oldest waiter reaches test&set first).
	l.q.WakeAll(s.e, s.tm.SyncOp, 2)
}
