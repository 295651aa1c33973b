package coherence

import (
	"fmt"
	"sort"

	"prism/internal/mem"
	"prism/internal/sim"
)

// Serializable controller state. Transaction maps holding callbacks
// into processor coroutines or queued requests (client, homeQ,
// flushWait, held, lockWait) are never captured: the capture layer
// requires Quiesced first, which forbids them. Home transactions are
// the one exception: once a grant is decided the home keeps the line
// locked waiting only for terminal acknowledgements (awaitGrantAck,
// invalidation ack collection), and such a transaction has no
// continuation — pure ack arithmetic — so these "tails" are captured
// as HomeTailState and rebuilt verbatim. Hardware
// lock queues must also be empty, but a lock may be *held* across a
// barrier, so held/holder are captured.

// ClientFrameHint is one cached client frame number (DirClientHints).
type ClientFrameHint struct {
	Node  mem.NodeID
	Frame mem.FrameID
}

// PageHintsState is the hint cache for one page, sorted by node.
type PageHintsState struct {
	Seg   mem.GSID
	Page  uint32
	Hints []ClientFrameHint
}

// MigratedToState is one tombstone for a page whose dynamic home
// moved away from this node.
type MigratedToState struct {
	Seg  mem.GSID
	Page uint32
	Node mem.NodeID
}

// PageTrafficState is one page's per-node hardware traffic counters.
type PageTrafficState struct {
	Seg    mem.GSID
	Page   uint32
	Counts []uint32
}

// HWLockState is one home-side hardware lock (queue must be empty at
// capture; held locks survive checkpoints).
type HWLockState struct {
	Seg    mem.GSID
	Page   uint32
	Line   int
	Held   bool
	Holder mem.NodeID
}

// HomeTailState is one closure-free home transaction: a locked line
// waiting only for terminal acknowledgements still on the wire.
type HomeTailState struct {
	Seg      mem.GSID
	Page     uint32
	Line     int
	NeedAcks int
}

// ControllerState is one node controller's serializable state.
type ControllerState struct {
	Ctrl         sim.ResourceState
	FlushToken   uint64
	ClientFrames []PageHintsState
	MigratedTo   []MigratedToState
	PageTraffic  []PageTrafficState
	HWLocks      []HWLockState
	HomeTails    []HomeTailState
	SyncStats    SyncStats
	Stats        Stats
}

// Quiesced reports whether the controller has no in-flight protocol
// transactions (part of the capture layer's quiescence predicate).
func (c *Controller) Quiesced() bool { return c.QuiesceBlocker() == "" }

// QuiesceBlocker names the first in-flight structure preventing
// quiescence, or "" if the controller is quiescent.
func (c *Controller) QuiesceBlocker() string {
	switch {
	case len(c.client) != 0:
		return fmt.Sprintf("%d client txns", len(c.client))
	case len(c.homeQ) != 0:
		return fmt.Sprintf("%d queued home requests", len(c.homeQ))
	case len(c.flushWait) != 0:
		return fmt.Sprintf("%d flush waiters", len(c.flushWait))
	case len(c.held) != 0:
		return fmt.Sprintf("%d held migration pages", len(c.held))
	case len(c.lockWait) != 0:
		return fmt.Sprintf("%d pending lock acquires", len(c.lockWait))
	}
	for _, l := range c.hwLocks {
		if len(l.queue) != 0 {
			return "queued hardware lock requesters"
		}
	}
	// Home transactions that only collect acks before unlocking
	// (tails) are serializable; any with a pending continuation is not.
	for _, t := range c.home {
		if t.then != thenUnlock || t.recall {
			return "home txn with pending continuation"
		}
	}
	return ""
}

func gpLess(aSeg mem.GSID, aPage uint32, bSeg mem.GSID, bPage uint32) bool {
	if aSeg != bSeg {
		return aSeg < bSeg
	}
	return aPage < bPage
}

// ExportState captures the controller. It panics if the controller is
// not quiescent.
func (c *Controller) ExportState() ControllerState {
	if !c.Quiesced() {
		panic("coherence: ExportState while not quiescent")
	}
	s := ControllerState{
		Ctrl:       c.ctrl.ExportState(),
		FlushToken: c.flushToken,
		SyncStats:  c.SyncStats,
		Stats:      c.Stats,
	}
	for g, byNode := range c.clientFrames {
		ph := PageHintsState{Seg: g.Seg, Page: g.Page}
		for n, f := range byNode {
			ph.Hints = append(ph.Hints, ClientFrameHint{Node: n, Frame: f})
		}
		sort.Slice(ph.Hints, func(i, j int) bool { return ph.Hints[i].Node < ph.Hints[j].Node })
		s.ClientFrames = append(s.ClientFrames, ph)
	}
	sort.Slice(s.ClientFrames, func(i, j int) bool {
		return gpLess(s.ClientFrames[i].Seg, s.ClientFrames[i].Page, s.ClientFrames[j].Seg, s.ClientFrames[j].Page)
	})
	for g, n := range c.migratedTo {
		s.MigratedTo = append(s.MigratedTo, MigratedToState{Seg: g.Seg, Page: g.Page, Node: n})
	}
	sort.Slice(s.MigratedTo, func(i, j int) bool {
		return gpLess(s.MigratedTo[i].Seg, s.MigratedTo[i].Page, s.MigratedTo[j].Seg, s.MigratedTo[j].Page)
	})
	for k, counts := range c.pageTraffic {
		g := k.page()
		s.PageTraffic = append(s.PageTraffic, PageTrafficState{Seg: g.Seg, Page: g.Page, Counts: append([]uint32(nil), counts...)})
	}
	sort.Slice(s.PageTraffic, func(i, j int) bool {
		return gpLess(s.PageTraffic[i].Seg, s.PageTraffic[i].Page, s.PageTraffic[j].Seg, s.PageTraffic[j].Page)
	})
	for k, l := range c.hwLocks {
		g := k.page()
		s.HWLocks = append(s.HWLocks, HWLockState{Seg: g.Seg, Page: g.Page, Line: k.line(), Held: l.held, Holder: l.holder})
	}
	sort.Slice(s.HWLocks, func(i, j int) bool {
		a, b := s.HWLocks[i], s.HWLocks[j]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Line < b.Line
	})
	for k, t := range c.home {
		g := k.page()
		s.HomeTails = append(s.HomeTails, HomeTailState{Seg: g.Seg, Page: g.Page, Line: k.line(), NeedAcks: t.needAcks})
	}
	sort.Slice(s.HomeTails, func(i, j int) bool {
		a, b := s.HomeTails[i], s.HomeTails[j]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Line < b.Line
	})
	return s
}

// ImportState restores the controller over a freshly built machine.
func (c *Controller) ImportState(s ControllerState) {
	c.ctrl.ImportState(s.Ctrl)
	c.flushToken = s.FlushToken
	c.SyncStats = s.SyncStats
	c.Stats = s.Stats
	c.client = make(map[lineKey]*clientTxn)
	c.home = make(map[lineKey]*homeTxn)
	for _, t := range s.HomeTails {
		c.home[keyOf(mem.GPage{Seg: t.Seg, Page: t.Page}, t.Line)] = &homeTxn{needAcks: t.NeedAcks}
	}
	c.homeQ = make(map[lineKey][]GetMsg)
	c.flushWait = make(map[uint64]func(at sim.Time))
	c.held = nil
	c.lockWait = nil
	c.clientFrames = make(map[mem.GPage]map[mem.NodeID]mem.FrameID, len(s.ClientFrames))
	for _, ph := range s.ClientFrames {
		byNode := make(map[mem.NodeID]mem.FrameID, len(ph.Hints))
		for _, h := range ph.Hints {
			byNode[h.Node] = h.Frame
		}
		c.clientFrames[mem.GPage{Seg: ph.Seg, Page: ph.Page}] = byNode
	}
	c.migratedTo = nil
	if len(s.MigratedTo) > 0 {
		c.migratedTo = make(map[mem.GPage]mem.NodeID, len(s.MigratedTo))
		for _, e := range s.MigratedTo {
			c.migratedTo[mem.GPage{Seg: e.Seg, Page: e.Page}] = e.Node
		}
	}
	c.pageTraffic = nil
	if len(s.PageTraffic) > 0 {
		c.pageTraffic = make(map[lineKey][]uint32, len(s.PageTraffic))
		for _, e := range s.PageTraffic {
			c.pageTraffic[pageKey(mem.GPage{Seg: e.Seg, Page: e.Page})] = append([]uint32(nil), e.Counts...)
		}
	}
	c.hwLocks = nil
	if len(s.HWLocks) > 0 {
		c.hwLocks = make(map[lineKey]*hwLock, len(s.HWLocks))
		for _, e := range s.HWLocks {
			c.hwLocks[keyOf(mem.GPage{Seg: e.Seg, Page: e.Page}, e.Line)] = &hwLock{held: e.Held, holder: e.Holder}
		}
	}
}
