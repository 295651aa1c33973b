package node

import (
	"fmt"
	"sort"

	"prism/internal/mem"
	"prism/internal/sim"
)

// Serializable state for the node layer: processors (local clock,
// stats, TLB), the per-node buses and the synchronization domain.
// Maps are exported as sorted slices so the JSON encoding is
// deterministic (see internal/snapshot).

// TLBEntryState is one TLB translation with its LRU stamp.
type TLBEntryState struct {
	Seg   mem.VSID
	Page  uint32
	Frame mem.FrameID
	LRU   uint64
}

// TLBState is a processor TLB's contents.
type TLBState struct {
	Clock   uint64
	Entries []TLBEntryState
}

// ProcState is one processor's serializable state. The coroutine stack
// itself is not captured: checkpoints are taken only at barrier-fill
// quiescence points, where every processor's continuation is known
// (see core/checkpoint.go).
type ProcState struct {
	Now   sim.Time
	Stats ProcStats
	TLB   TLBState
}

// ExportState captures the processor (caches are exported separately
// through L1()/L2()).
func (p *Proc) ExportState() ProcState {
	return ProcState{Now: p.now, Stats: p.Stats, TLB: p.tlb.exportState()}
}

// ImportState restores the processor. A malformed TLB snapshot (more
// entries than the TLB holds, a page twice, or LRU stamps that are not
// distinct clock values) is rejected with an error and changes nothing.
func (p *Proc) ImportState(s ProcState) error {
	if err := p.tlb.importState(s.TLB); err != nil {
		return fmt.Errorf("node: proc %d: %w", p.ID, err)
	}
	p.now = s.Now
	p.Stats = s.Stats
	return nil
}

func (t *tlb) exportState() TLBState {
	s := TLBState{Clock: t.clock}
	for i, k := range t.keys {
		if k != 0 {
			vp := mem.VPageFromKey(k)
			s.Entries = append(s.Entries, TLBEntryState{Seg: vp.Seg, Page: vp.Page, Frame: t.frames[i], LRU: t.stamps[i]})
		}
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

func (t *tlb) importState(s TLBState) error {
	if len(s.Entries) > len(t.keys) {
		return fmt.Errorf("TLB snapshot has %d entries, capacity is %d", len(s.Entries), len(t.keys))
	}
	for i, e := range s.Entries {
		vp := mem.VPage{Seg: e.Seg, Page: e.Page}
		if e.LRU > s.Clock {
			return fmt.Errorf("TLB snapshot stamps %v with LRU %d, past clock %d", vp, e.LRU, s.Clock)
		}
		for _, d := range s.Entries[:i] {
			switch {
			case d.Seg == e.Seg && d.Page == e.Page:
				return fmt.Errorf("TLB snapshot has %v twice", vp)
			case d.LRU == e.LRU:
				return fmt.Errorf("TLB snapshot has LRU stamp %d twice", e.LRU)
			}
		}
	}
	// Entries take slots 0..n-1 in page order; which slot holds a page
	// is not observable, since export sorts by page. The LRU list is
	// rebuilt in stamp order, and last points at its head.
	clear(t.keys)
	clear(t.index)
	t.reset(len(s.Entries))
	order := make([]int32, len(s.Entries))
	for i, e := range s.Entries {
		key := mem.VPage{Seg: e.Seg, Page: e.Page}.Key()
		t.keys[i], t.frames[i], t.stamps[i] = key, e.Frame, e.LRU
		t.index[t.probe(key)] = int32(i + 1)
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return t.stamps[order[a]] < t.stamps[order[b]] })
	for _, slot := range order {
		t.pushFront(slot)
	}
	t.last = 0
	if t.head >= 0 {
		t.last = int(t.head)
	}
	t.clock = s.Clock
	return nil
}

// NodeState is the node-level hardware state outside the processors:
// bus and memory occupancy plus the per-mode fill statistics.
type NodeState struct {
	AddrBus  sim.ResourceState
	DataBus  sim.ResourceState
	Mem      sim.ResourceState
	BusStats BusStats
}

// ExportState captures the node-level hardware.
func (n *Node) ExportState() NodeState {
	return NodeState{
		AddrBus:  n.addrBus.ExportState(),
		DataBus:  n.dataBus.ExportState(),
		Mem:      n.memRes.ExportState(),
		BusStats: n.BusStats,
	}
}

// ImportState restores the node-level hardware.
func (n *Node) ImportState(s NodeState) {
	n.addrBus.ImportState(s.AddrBus)
	n.dataBus.ImportState(s.DataBus)
	n.memRes.ImportState(s.Mem)
	n.BusStats = s.BusStats
}

// BarrierEntryState is one barrier's structural state.
type BarrierEntryState struct {
	ID    int
	Count int
	Epoch uint64
}

// LockEntryState is one software lock's structural state.
type LockEntryState struct {
	ID   int
	Held bool
}

// SyncState is the synchronization domain's serializable state. Wait
// queues are not captured: at a checkpoint every processor is either
// parked in the checkpoint barrier's (just-cleared) queue or is the
// trigger, so all queues are empty by construction.
type SyncState struct {
	Barriers   []BarrierEntryState
	Locks      []LockEntryState
	BarrierOps uint64
	LockOps    uint64
}

// ExportState captures the sync domain. It panics if any wait queue is
// non-empty — the capture layer must only call it at quiescence.
func (s *SyncDomain) ExportState() SyncState {
	st := SyncState{BarrierOps: s.BarrierOps, LockOps: s.LockOps}
	for id, b := range s.barriers {
		if len(b.waiters) != 0 {
			panic("sync: ExportState with waiting processors")
		}
		st.Barriers = append(st.Barriers, BarrierEntryState{ID: id, Count: b.count, Epoch: b.epoch})
	}
	for id, l := range s.locks {
		if l.q.Len() != 0 {
			panic("sync: ExportState with waiting processors")
		}
		st.Locks = append(st.Locks, LockEntryState{ID: id, Held: l.held})
	}
	sort.Slice(st.Barriers, func(i, j int) bool { return st.Barriers[i].ID < st.Barriers[j].ID })
	sort.Slice(st.Locks, func(i, j int) bool { return st.Locks[i].ID < st.Locks[j].ID })
	return st
}

// ImportState restores the sync domain. Replay re-creates barrier and
// lock objects with live wait queues; the import overwrites counts and
// hold state, which at a checkpoint match the replayed values anyway.
func (s *SyncDomain) ImportState(st SyncState) {
	s.BarrierOps = st.BarrierOps
	s.LockOps = st.LockOps
	for _, be := range st.Barriers {
		b := s.barriers[be.ID]
		if b == nil {
			b = &barrierState{}
			s.barriers[be.ID] = b
		}
		b.count = be.Count
		b.epoch = be.Epoch
	}
	for _, le := range st.Locks {
		l := s.locks[le.ID]
		if l == nil {
			l = &lockState{}
			s.locks[le.ID] = l
		}
		l.held = le.Held
	}
}

// QueuesEmpty reports whether every barrier and lock wait queue is
// empty (part of the capture layer's quiescence predicate — at a
// barrier fill all other processors sit in the just-cleared queue, so
// every queue the domain owns must be empty).
func (s *SyncDomain) QueuesEmpty() bool {
	for _, b := range s.barriers {
		if len(b.waiters) != 0 {
			return false
		}
	}
	for _, l := range s.locks {
		if l.q.Len() != 0 {
			return false
		}
	}
	return true
}
