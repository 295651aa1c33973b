package coherence

import (
	"fmt"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/pool"
	"prism/internal/sim"
	"prism/internal/timing"
)

// Local is the view the controller has of its own node's hardware: the
// processor caches reachable over the node bus. Implemented by
// node.Node.
type Local interface {
	// Retrieve performs a bus transaction that obtains the latest copy
	// of line pa from the node's processor caches, downgrading
	// (inval=false) or invalidating (inval=true) processor copies, and
	// then runs r.Retrieved in engine context.
	Retrieve(pa mem.PAddr, inval bool, r Retrieval)

	// InvalidateFrameLines removes every line of frame f from all
	// processor caches (bulk, during page flushes) and returns the
	// indexes of lines that were Modified in some cache.
	InvalidateFrameLines(f mem.FrameID) []int
}

// Filler is the client-side continuation of one ClientFetch: a
// long-lived object (node embeds one per processor) so that issuing
// and completing a fetch allocates nothing. Exactly one of Fill or
// Retry eventually runs, in engine context.
type Filler interface {
	// Fill runs when the line is usable by the requesting processor.
	// fault reports a firewall rejection at the home.
	Fill(at sim.Time, excl, fault bool)
	// Retry runs after a conflicting transaction for the same line
	// completed; the requester must re-dispatch its access.
	Retry(at sim.Time)
}

// Retrieval is the continuation of one Local.Retrieve. The
// controller's pooled retrieve events implement it, so issuing and
// completing a bus retrieve allocates no callback.
type Retrieval interface {
	// Retrieved runs when the bus transaction settles; dirty reports
	// whether a processor held the line Modified.
	Retrieved(at sim.Time, dirty bool)
}

// HomeRouter resolves page homes. Implemented by the core machine's
// global page registry (backed by the IPC server and the migration
// manager).
type HomeRouter interface {
	// StaticHome returns the page's fixed static home.
	StaticHome(g mem.GPage) mem.NodeID
	// DynamicHome returns the current dynamic home as recorded at the
	// static home (§3.5).
	DynamicHome(g mem.GPage) mem.NodeID
}

// HomePager is the home-side kernel interface the controller notifies
// when a flush with Drop arrives (client page-out bookkeeping).
type HomePager interface {
	// ClientDropped records that client src no longer maps page g.
	ClientDropped(g mem.GPage, src mem.NodeID)
}

// Config holds controller options beyond timing.
type Config struct {
	// DirClientHints stores client frame numbers in directory entries
	// so invalidations avoid the hash reverse-translation at clients
	// (the trade-off discussed at the end of §4.3). Off by default,
	// matching the paper's simulated configuration.
	DirClientHints bool
}

// Stats counts controller protocol activity.
type Stats struct {
	// RemoteMisses counts misses to shared memory that fetched data
	// from a remote node (the Table 4/5 statistic).
	RemoteMisses uint64
	// Upgrades counts exclusivity grants that moved no data.
	Upgrades uint64
	// WritebacksSent counts dirty LA-NUMA lines written back to homes.
	WritebacksSent uint64
	// InvsReceived and RecallsReceived count inbound protocol work.
	InvsReceived    uint64
	RecallsReceived uint64
	// InvsSent counts invalidations issued by the home side.
	InvsSent uint64
	// Forwards counts misdirected requests re-routed after migration.
	Forwards uint64
	// FirewallFaults counts requests this home rejected.
	FirewallFaults uint64
	// FaultsSeen counts faulted responses received by this client.
	FaultsSeen uint64
	// HomeServed counts requests served by this node's home side.
	HomeServed uint64

	// Per-type message receive counts (telemetry: the coherence
	// protocol mix delivered to this node).
	MsgGet        uint64
	MsgData       uint64
	MsgGrantAck   uint64
	MsgInv        uint64
	MsgInvAck     uint64
	MsgRecall     uint64
	MsgRecallResp uint64
	MsgWB         uint64
	MsgFlush      uint64
	MsgFlushAck   uint64
	MsgLockReq    uint64
	MsgLockGrant  uint64
	MsgUnlock     uint64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// lineKey is a line's identity packed into one integer, so the
// controller's per-line maps hash it on the runtime's 64-bit fast path:
// segment in bits 48-63, page in bits 16-47, line in bits 0-15.
// mem.Geometry.Validate bounds a page to mem.MaxLinesPerPage (1<<16)
// lines, so two lines never share a key.
type lineKey uint64

func keyOf(g mem.GPage, line int) lineKey {
	return lineKey(uint64(g.Seg)<<48 | uint64(g.Page)<<16 | uint64(line))
}

// pageKey keys the per-page maps: the key of the page's line 0.
func pageKey(g mem.GPage) lineKey { return keyOf(g, 0) }

func (k lineKey) page() mem.GPage { return mem.GPage{Seg: mem.GSID(k >> 48), Page: uint32(k >> 16)} }
func (k lineKey) line() int       { return int(k & 0xffff) }

// clientTxn is an outstanding client-side transaction for one line.
type clientTxn struct {
	frame   mem.FrameID
	excl    bool
	start   sim.Time // issue time, for the remote-miss latency histogram
	fill    Filler
	waiters []Filler
}

// clientEvent is a pooled completion event: it invokes one Filler's
// Fill or Retry at its scheduled time and returns itself to the
// controller's free list.
type clientEvent struct {
	c           *Controller
	fl          Filler
	excl, fault bool
	retry       bool
}

// OnEvent implements sim.EventHandler.
func (ev *clientEvent) OnEvent(now sim.Time) {
	c, fl := ev.c, ev.fl
	excl, fault, retry := ev.excl, ev.fault, ev.retry
	c.freeClient.Put(ev)
	if retry {
		fl.Retry(now)
	} else {
		fl.Fill(now, excl, fault)
	}
}

// clientEv takes a completion event from the free list and fills it in.
func (c *Controller) clientEv(fl Filler, excl, fault, retry bool) *clientEvent {
	ev := c.freeClient.Get()
	ev.c, ev.fl, ev.excl, ev.fault, ev.retry = c, fl, excl, fault, retry
	return ev
}

// homeTxn is an in-flight multi-party transaction at the home side.
// The continuations read their state from the record itself, so a
// transaction allocates nothing beyond its pooled homeTxn.
type homeTxn struct {
	needAcks int
	then     txnThen // what the last ack does
	// recall marks a 3-party transaction still waiting for the
	// owner's RecallRespMsg (recallDone).
	recall bool

	// Continuation state for thenGrantExcl and recall.
	m        GetMsg
	src      mem.NodeID // requester
	owner    mem.NodeID // recalled owner
	f        mem.FrameID
	ent      *pit.Entry
	line     *directory.Line
	withData bool
}

// txnThen selects what a home transaction does when its last ack
// arrives.
type txnThen uint8

const (
	// thenUnlock releases the line: the transaction was only
	// collecting terminal acks.
	thenUnlock txnThen = iota
	// thenWired does nothing: the completion is wired up later by a
	// pooled event (getEvent calls awaitGrantAck).
	thenWired
	// thenGrantExcl grants exclusivity once every sharer of a GETX on
	// a shared line has acked its invalidation (grantExcl).
	thenGrantExcl
)

// Controller is one node's PRISM coherence controller.
type Controller struct {
	e    *sim.Engine
	node mem.NodeID
	geom mem.Geometry
	tm   *timing.T
	cfg  Config

	PIT *pit.PIT
	Dir *directory.Directory

	net    *network.Network
	memRes *sim.Resource
	local  Local
	router HomeRouter
	pager  HomePager

	ctrl sim.Resource // controller occupancy

	client     map[lineKey]*clientTxn
	home       map[lineKey]*homeTxn
	homeQ      map[lineKey][]GetMsg // Gets waiting for a locked line, FIFO
	flushWait  map[uint64]func(at sim.Time)
	flushToken uint64

	// clientFrames caches client frame hints per page when
	// DirClientHints is on: page → node → frame.
	clientFrames map[mem.GPage]map[mem.NodeID]mem.FrameID

	// migratedTo tombstones pages whose dynamic home moved away from
	// this node; held queues home-role traffic during the migration
	// window; pageTraffic holds the per-page hardware counters that
	// drive migration policies (§3.5). All allocated lazily.
	migratedTo  map[mem.GPage]mem.NodeID
	held        map[mem.GPage][]func()
	pageTraffic map[lineKey][]uint32 // by pageKey

	// refetchThreshold/onRefetch implement the R-NUMA-style reuse
	// detector used by the bidirectional Dyn-Both policy: when a
	// LA-NUMA frame's client refetch count crosses the threshold the
	// kernel is notified (and typically converts the page to S-COMA).
	refetchThreshold uint64
	onRefetch        func(f mem.FrameID)

	// Hardware lock protocol state (Sync-mode pages, §3.2): home-side
	// lock queues and client-side pending acquires.
	hwLocks  map[lineKey]*hwLock
	lockWait map[lineKey][]pendingAcquire

	// pools is the machine's message free-list set (see MsgPools):
	// every send site acquires from a pool and Deliver releases on
	// receipt (handlers that outlive their call get a value copy).
	pools *MsgPools

	// flushScratch is FlushPage's per-line dirty bitmap, reused across
	// calls.
	flushScratch []bool

	// Free lists of the controller's own records: transactions and the
	// events that complete them. These never cross nodes, so the lists
	// are per-controller.
	freeClient pool.Free[clientEvent]
	freeHome   pool.Free[homeTxn]
	freeInv    pool.Free[invEvent]
	freeRecall pool.Free[recallEvent]
	freeGet    pool.Free[getEvent]
	freeAck    pool.Free[ackEvent]
	freeDrain  pool.Free[drainEvent]

	// freeTxns recycles client transaction records. It is not a
	// pool.Free because putTxn keeps each record's waiters buffer, where
	// Put would zero it and every conflicting access would grow a new
	// one: on a pool.Free the MachineFFT benchmark row rose from about
	// 5,800 to about 8,100 allocs/op.
	freeTxns []*clientTxn

	// sharerScratch is handleGet's reused sharer list (valid only until
	// the next GETX handled by this controller).
	sharerScratch []mem.NodeID

	// SyncStats counts hardware-lock activity at this home.
	SyncStats SyncStats

	Stats Stats

	// Latency histograms (nil when no registry is attached; Observe
	// on nil is a no-op).
	histRemoteMiss  *metrics.Histogram // ClientFetch issue → data usable
	histLockAcquire *metrics.Histogram // client lock request → grant
	histLockQueue   *metrics.Histogram // home-side wait in the lock queue
}

// New wires up a controller. memRes is the node's local DRAM resource
// (shared with the bus path for Local-mode accesses); pools is the
// machine's message pool set, shared by all of its controllers.
func New(e *sim.Engine, node mem.NodeID, geom mem.Geometry, tm *timing.T, cfg Config,
	p *pit.PIT, d *directory.Directory, net *network.Network, memRes *sim.Resource,
	local Local, router HomeRouter, pager HomePager, pools *MsgPools) *Controller {

	c := &Controller{
		e: e, node: node, geom: geom, tm: tm, cfg: cfg,
		PIT: p, Dir: d, net: net, memRes: memRes,
		local: local, router: router, pager: pager, pools: pools,
		client:       make(map[lineKey]*clientTxn),
		home:         make(map[lineKey]*homeTxn),
		homeQ:        make(map[lineKey][]GetMsg),
		flushWait:    make(map[uint64]func(at sim.Time)),
		clientFrames: make(map[mem.GPage]map[mem.NodeID]mem.FrameID),
	}
	c.ctrl.Name = fmt.Sprintf("ctrl%d", node)
	return c
}

// SetRefetchHook arms the LA-NUMA reuse detector: fn runs (in engine
// context) the first time a LA-NUMA frame accumulates threshold remote
// refetches. Used by the bidirectional Dyn-Both policy.
func (c *Controller) SetRefetchHook(threshold uint64, fn func(f mem.FrameID)) {
	c.refetchThreshold = threshold
	c.onRefetch = fn
}

// memAccess charges one local memory access and returns its completion
// time.
func (c *Controller) memAccess(at sim.Time, busy sim.Time) sim.Time {
	return c.memRes.Acquire(at, busy) + busy
}

// ctrlBusy charges controller occupancy and returns the completion.
func (c *Controller) ctrlBusy(at, busy sim.Time) sim.Time {
	return c.ctrl.Acquire(at, busy) + busy
}

// send issues a message at the given model time (engine context).
func (c *Controller) send(at sim.Time, dst mem.NodeID, size int, msg network.Message) {
	c.net.Send(at, c.node, dst, size, msg)
}

// MsgPools is a free-list set for the coherence protocol messages plus
// the FlushMsg.DirtyLines buffers that ride them. The zero value is
// ready to use. The machine builds one set and node.New hands it to
// every controller: the sender of a message type and its releaser are
// different nodes (clients send GetMsgs, homes release them), so
// per-controller pools would fill on one side and starve on the other.
// Sharing is safe because one machine runs on one engine goroutine.
type MsgPools struct {
	get        pool.Free[GetMsg]
	data       pool.Free[DataMsg]
	grantAck   pool.Free[GrantAckMsg]
	inv        pool.Free[InvMsg]
	invAck     pool.Free[InvAckMsg]
	recall     pool.Free[RecallMsg]
	recallResp pool.Free[RecallRespMsg]
	wb         pool.Free[WBMsg]
	flush      pool.Free[FlushMsg]
	flushAck   pool.Free[FlushAckMsg]
	lockReq    pool.Free[LockReqMsg]
	lockGrant  pool.Free[LockGrantMsg]
	unlock     pool.Free[UnlockMsg]

	freeInts [][]int
}

// getInts pops (or allocates) a dirty-line index buffer for FlushPage.
func (c *Controller) getInts() []int {
	fi := c.pools.freeInts
	if n := len(fi); n > 0 {
		s := fi[n-1]
		fi[n-1] = nil
		c.pools.freeInts = fi[:n-1]
		return s[:0]
	}
	return make([]int, 0, c.geom.LinesPerPage())
}

// putInts reclaims a DirtyLines buffer once the flush has been applied.
func (c *Controller) putInts(s []int) {
	if s != nil {
		c.pools.freeInts = append(c.pools.freeInts, s)
	}
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

// ClientFetch issues a remote request for line ln of local frame f
// (mode S-COMA or LA-NUMA) at model time at. ent is f's PIT entry,
// already looked up by the bus dispatch path. fr.Fill runs in engine
// context when the line is usable by the requesting processor. If a
// transaction for the same line is already outstanding (fine-grain tag
// Transit), fr is queued and fr.Retry runs after completion instead;
// exactly one of Fill or Retry is eventually invoked.
func (c *Controller) ClientFetch(at sim.Time, f mem.FrameID, ln int, write bool, ent *pit.Entry, fr Filler) {
	key := keyOf(ent.GPage, ln)
	if txn, ok := c.client[key]; ok {
		txn.waiters = append(txn.waiters, fr)
		return
	}

	upgrade := false
	if ent.Mode == pit.ModeSCOMA {
		upgrade = write && ent.Tags[ln] == pit.TagShared
		c.PIT.SetTag(f, ln, pit.TagTransit)
	}

	txn := c.getTxn()
	txn.frame, txn.excl, txn.start, txn.fill = f, write, at, fr
	c.client[key] = txn

	t := c.ctrlBusy(at, c.tm.CtrlOut)
	g := c.pools.get.Get()
	g.Page, g.Line, g.From = ent.GPage, ln, c.node
	g.Excl, g.HaveData = write, upgrade
	g.ReqFrame = f
	g.HomeFrame, g.HomeFrameOK = ent.HomeFrame, ent.HomeFrameKnown
	c.send(t, ent.DynHome, c.tm.MsgHeader, g)
}

// handleData completes a client transaction.
func (c *Controller) handleData(src mem.NodeID, m *DataMsg) {
	key := keyOf(m.Page, m.Line)
	txn, ok := c.client[key]
	if !ok {
		panic(fmt.Sprintf("coherence: node %d: data for %v line %d without transaction (from=%d excl=%v withData=%v fault=%v reqFrame=%d t=%d)",
			c.node, m.Page, m.Line, src, m.Excl, m.WithData, m.Fault, m.ReqFrame, c.e.Now()))
	}
	delete(c.client, key)

	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)

	ent := c.PIT.Entry(txn.frame)
	if ent != nil && ent.Valid() && ent.GPage == m.Page && !m.Fault {
		// Refresh migration and reverse-translation hints.
		ent.DynHome = m.DynHome
		ent.HomeFrame = m.HomeFrame
		ent.HomeFrameKnown = true

		if ent.Mode == pit.ModeSCOMA {
			if m.WithData {
				// Data is copied into the local page cache in parallel
				// with the processor fill.
				c.memAccess(t, c.tm.MemWrite)
			}
			if m.Excl {
				c.PIT.SetTag(txn.frame, m.Line, pit.TagExclusive)
			} else {
				c.PIT.SetTag(txn.frame, m.Line, pit.TagShared)
			}
			ent.Dirty[m.Line] = false
		}
	} else if ent != nil && ent.Valid() && ent.GPage == m.Page && m.Fault {
		// Faulted transaction: restore the tag so the line can be
		// retried or remain invalid.
		if ent.Mode == pit.ModeSCOMA {
			c.PIT.SetTag(txn.frame, m.Line, pit.TagInvalid)
		}
	}

	if m.Fault {
		c.Stats.FaultsSeen++
	} else if m.WithData {
		c.Stats.RemoteMisses++
		c.histRemoteMiss.Observe(t - txn.start)
		if ent != nil && ent.Valid() && ent.GPage == m.Page && ent.Mode == pit.ModeLANUMA {
			ent.RemoteTraffic++ // client-side refetch counter
			if c.refetchThreshold > 0 && ent.RemoteTraffic == c.refetchThreshold && c.onRefetch != nil {
				frame := txn.frame
				c.e.Schedule(1, func() { c.onRefetch(frame) })
			}
		}
	} else {
		c.Stats.Upgrades++
	}

	// Acknowledge consumption so the home unlocks the line.
	ga := c.pools.grantAck.Get()
	ga.Page, ga.Line = m.Page, m.Line
	c.send(t, m.DynHome, c.tm.MsgHeader, ga)

	c.e.AtEvent(t, c.clientEv(txn.fill, m.Excl, m.Fault, false))
	for i, w := range txn.waiters {
		// Conflicting requesters re-dispatch with a small stagger so the
		// retries serialize deterministically.
		c.e.AtEvent(t+sim.Time(i+1)*2, c.clientEv(w, false, false, true))
	}
	c.putTxn(txn)
}

// getTxn pops (or allocates) a client transaction record.
func (c *Controller) getTxn() *clientTxn {
	if n := len(c.freeTxns); n > 0 {
		txn := c.freeTxns[n-1]
		c.freeTxns = c.freeTxns[:n-1]
		return txn
	}
	return &clientTxn{}
}

// putTxn recycles a completed client transaction. The waiters slice
// keeps its capacity; its Filler references are dropped so the pool
// does not pin them.
func (c *Controller) putTxn(txn *clientTxn) {
	txn.fill = nil
	for i := range txn.waiters {
		txn.waiters[i] = nil
	}
	txn.waiters = txn.waiters[:0]
	c.freeTxns = append(c.freeTxns, txn)
}

// ClientWriteback handles a dirty L2 eviction against frame f.
// For S-COMA and Local frames the data lands in local memory; for
// LA-NUMA frames it is written back to the home (the cost LA-NUMA
// pays when the working set exceeds the processor caches).
func (c *Controller) ClientWriteback(f mem.FrameID, ln int, ent *pit.Entry) {
	switch ent.Mode {
	case pit.ModeSCOMA:
		c.memAccess(c.e.Now(), c.tm.MemWrite)
		ent.Dirty[ln] = true
	case pit.ModeLANUMA:
		t := c.ctrlBusy(c.e.Now(), c.tm.CtrlOut)
		c.Stats.WritebacksSent++
		wb := c.pools.wb.Get()
		wb.Page, wb.Line = ent.GPage, ln
		wb.HomeFrame, wb.HomeFrameOK = ent.HomeFrame, ent.HomeFrameKnown
		c.send(t, ent.DynHome, c.tm.MsgHeader+c.tm.LineBytes, wb)
	default:
		c.memAccess(c.e.Now(), c.tm.MemWrite)
	}
}

// FlushPage writes every dirty line of client frame f back to the home
// and invalidates all local copies (processor caches and fine-grain
// tags). If drop is true the home also removes this client from the
// page's directory and client list (a page-out); done runs when the
// home acknowledges. FlushPage must not be called while any line of
// the frame is in Transit — victim-selection policies skip such frames.
func (c *Controller) FlushPage(f mem.FrameID, drop bool, done func(at sim.Time)) {
	ent := c.PIT.Entry(f)
	if ent == nil || !ent.Valid() {
		panic(fmt.Sprintf("coherence: node %d: FlushPage of unbound frame %d", c.node, f))
	}
	if ent.Mode == pit.ModeSCOMA && ent.InTransit() {
		panic(fmt.Sprintf("coherence: node %d: FlushPage of in-transit frame %d", c.node, f))
	}

	if c.flushScratch == nil {
		c.flushScratch = make([]bool, c.geom.LinesPerPage())
	}
	ds := c.flushScratch
	for _, ln := range c.local.InvalidateFrameLines(f) {
		ds[ln] = true
	}
	if ent.Mode == pit.ModeSCOMA {
		for ln := range ent.Dirty {
			if ent.Dirty[ln] && ent.Tags[ln] == pit.TagExclusive {
				ds[ln] = true
			}
			c.PIT.SetTag(f, ln, pit.TagInvalid)
			ent.Dirty[ln] = false
		}
	}
	// The ordered scan doubles as the scratch clear, keeping the same
	// ascending line order the map+scan version produced.
	dirty := c.getInts()
	for ln := 0; ln < c.geom.LinesPerPage(); ln++ {
		if ds[ln] {
			dirty = append(dirty, ln)
			ds[ln] = false
		}
	}

	c.flushToken++
	tok := c.flushToken
	c.flushWait[tok] = done

	cost := c.tm.CtrlOut + sim.Time(len(dirty))*c.tm.PerLineFlush
	t := c.ctrlBusy(c.e.Now(), cost)
	fm := c.pools.flush.Get()
	fm.Page, fm.DirtyLines, fm.Drop = ent.GPage, dirty, drop
	fm.HomeFrame, fm.HomeFrameOK = ent.HomeFrame, ent.HomeFrameKnown
	fm.From, fm.Token = c.node, tok
	c.send(t, ent.DynHome, c.tm.MsgHeader+len(dirty)*c.tm.LineBytes, fm)
}

// handleFlushAck completes a FlushPage.
func (c *Controller) handleFlushAck(m *FlushAckMsg) {
	done := c.flushWait[m.Token]
	delete(c.flushWait, m.Token)
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	if done != nil {
		c.e.CallAt(t, done)
	}
}

// handleInv processes an invalidation of a shared line at this client.
// m arrives by value: the delivered message is already back in its pool.
func (c *Controller) handleInv(src mem.NodeID, m InvMsg) {
	c.Stats.InvsReceived++
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)

	f, ok, cost := c.PIT.ReverseLookup(m.Page, m.ClientFrame, m.ClientFrameOK)
	t += cost
	if ok {
		ent := c.PIT.Entry(f)
		if ent != nil && ent.Valid() && ent.GPage == m.Page {
			if ent.Mode == pit.ModeSCOMA && ent.Tags[m.Line] != pit.TagTransit {
				c.PIT.SetTag(f, m.Line, pit.TagInvalid)
				ent.Dirty[m.Line] = false
			}
			ev := c.freeInv.Get()
			ev.c, ev.src, ev.page, ev.line = c, src, m.Page, m.Line
			ev.pa = mem.NewPAddr(c.geom, f, m.Line*c.geom.LineSize)
			c.e.AtEvent(t, ev)
			return
		}
	}
	// Frame already unmapped (raced with a page-out): ack immediately.
	ia := c.pools.invAck.Get()
	ia.Page, ia.Line = m.Page, m.Line
	c.send(t, src, c.tm.MsgHeader, ia)
}

// handleRecall processes a recall of an exclusively-held line.
// m arrives by value: the delivered message is already back in its pool.
func (c *Controller) handleRecall(src mem.NodeID, m RecallMsg) {
	c.Stats.RecallsReceived++
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)

	f, ok, cost := c.PIT.ReverseLookup(m.Page, m.ClientFrame, m.ClientFrameOK)
	t += cost
	if !ok {
		rr := c.pools.recallResp.Get()
		rr.Page, rr.Line = m.Page, m.Line
		c.send(t, src, c.tm.MsgHeader, rr)
		return
	}
	ent := c.PIT.Entry(f)
	if ent == nil || !ent.Valid() || ent.GPage != m.Page {
		rr := c.pools.recallResp.Get()
		rr.Page, rr.Line = m.Page, m.Line
		c.send(t, src, c.tm.MsgHeader, rr)
		return
	}

	scomaDirty := false
	if ent.Mode == pit.ModeSCOMA {
		scomaDirty = ent.Dirty[m.Line]
		if m.Inval {
			if ent.Tags[m.Line] != pit.TagTransit {
				c.PIT.SetTag(f, m.Line, pit.TagInvalid)
			}
		} else if ent.Tags[m.Line] == pit.TagExclusive {
			c.PIT.SetTag(f, m.Line, pit.TagShared)
		}
		ent.Dirty[m.Line] = false
	}

	ev := c.freeRecall.Get()
	ev.c, ev.src, ev.m, ev.scomaDirty = c, src, m, scomaDirty
	ev.pa = mem.NewPAddr(c.geom, f, m.Line*c.geom.LineSize)
	c.e.AtEvent(t, ev)
}

// invEvent is the pooled bus-retrieve record for one incoming
// invalidation: schedule it with AtEvent, and its Retrieved sends the
// ack.
type invEvent struct {
	c    *Controller
	src  mem.NodeID
	pa   mem.PAddr
	page mem.GPage
	line int
}

func (ev *invEvent) OnEvent(sim.Time) { ev.c.local.Retrieve(ev.pa, true, ev) }

// Retrieved implements Retrieval.
func (ev *invEvent) Retrieved(at sim.Time, _ bool) {
	c := ev.c
	ia := c.pools.invAck.Get()
	ia.Page, ia.Line = ev.page, ev.line
	c.send(at, ev.src, c.tm.MsgHeader, ia)
	c.freeInv.Put(ev)
}

// recallEvent is the pooled analogue for incoming recalls.
type recallEvent struct {
	c          *Controller
	src        mem.NodeID
	pa         mem.PAddr
	m          RecallMsg
	scomaDirty bool
}

func (ev *recallEvent) OnEvent(sim.Time) { ev.c.local.Retrieve(ev.pa, ev.m.Inval, ev) }

// Retrieved implements Retrieval.
func (ev *recallEvent) Retrieved(at sim.Time, procDirty bool) {
	c, m := ev.c, &ev.m
	dirty := procDirty || ev.scomaDirty
	// Data goes straight to the requester; the (sharing) writeback goes
	// to the home in parallel.
	d := c.pools.data.Get()
	d.Page, d.Line, d.ReqFrame = m.Page, m.Line, m.ReqFrame
	d.Excl, d.WithData = m.Inval, true
	d.HomeFrame, d.DynHome = m.HomeFrame, ev.src
	c.send(at, m.Requester, c.tm.MsgHeader+c.tm.LineBytes, d)
	size := c.tm.MsgHeader
	if dirty {
		size += c.tm.LineBytes
	}
	rr := c.pools.recallResp.Get()
	rr.Page, rr.Line, rr.Dirty, rr.Had = m.Page, m.Line, dirty, true
	c.send(at, ev.src, size, rr)
	c.freeRecall.Put(ev)
}

// Deliver implements network.Handler dispatch for coherence traffic.
// It returns false for message types it does not own (paging traffic),
// which the node routes to the kernel.
//
// Messages are released to the receiving controller's pools here, on
// delivery. Handlers that can outlive their call (Get/Inv/Recall/WB/
// Flush schedule continuations or queue behind a locked line) take a
// value copy; the strictly synchronous handlers are verified not to
// retain the pointer, so it is returned to the pool right after they
// run. The held-page migration window is checked with isHeld before
// dispatch so the common path allocates no closure.
func (c *Controller) Deliver(src mem.NodeID, msg network.Message) bool {
	switch m := msg.(type) {
	case *GetMsg:
		c.Stats.MsgGet++
		mv := *m
		c.pools.get.Put(m)
		if c.isHeld(mv.Page) {
			c.holdGet(src, mv)
			return true
		}
		c.handleGet(src, mv, false)
	case *DataMsg:
		c.Stats.MsgData++
		c.handleData(src, m)
		c.pools.data.Put(m)
	case *GrantAckMsg:
		c.Stats.MsgGrantAck++
		c.handleGrantAck(src, m)
		c.pools.grantAck.Put(m)
	case *InvMsg:
		c.Stats.MsgInv++
		mv := *m
		c.pools.inv.Put(m)
		c.handleInv(src, mv)
	case *InvAckMsg:
		c.Stats.MsgInvAck++
		c.handleInvAck(src, m)
		c.pools.invAck.Put(m)
	case *RecallMsg:
		c.Stats.MsgRecall++
		mv := *m
		c.pools.recall.Put(m)
		c.handleRecall(src, mv)
	case *RecallRespMsg:
		c.Stats.MsgRecallResp++
		c.handleRecallResp(src, m)
		c.pools.recallResp.Put(m)
	case *WBMsg:
		c.Stats.MsgWB++
		mv := *m
		c.pools.wb.Put(m)
		if c.isHeld(mv.Page) {
			c.holdWB(src, mv)
			return true
		}
		c.handleWB(src, mv)
	case *FlushMsg:
		c.Stats.MsgFlush++
		mv := *m // mv keeps the DirtyLines slice; Put only nils the field
		c.pools.flush.Put(m)
		if c.isHeld(mv.Page) {
			c.holdFlush(src, mv)
			return true
		}
		c.handleFlush(src, mv)
	case *FlushAckMsg:
		c.Stats.MsgFlushAck++
		c.handleFlushAck(m)
		c.pools.flushAck.Put(m)
	case *LockReqMsg:
		c.Stats.MsgLockReq++
		c.handleLockReq(src, m)
		c.pools.lockReq.Put(m)
	case *LockGrantMsg:
		c.Stats.MsgLockGrant++
		c.handleLockGrant(src, m)
		c.pools.lockGrant.Put(m)
	case *UnlockMsg:
		c.Stats.MsgUnlock++
		c.handleUnlock(src, m)
		c.pools.unlock.Put(m)
	default:
		return false
	}
	return true
}

// holdGet/holdWB/holdFlush queue a home-role message during a page's
// migration window. They live out of line so the value capture (one
// heap allocation) is paid only on the rare held path, not on every
// delivery.
func (c *Controller) holdGet(src mem.NodeID, m GetMsg) {
	c.held[m.Page] = append(c.held[m.Page], func() { c.handleGet(src, m, false) })
}

func (c *Controller) holdWB(src mem.NodeID, m WBMsg) {
	c.held[m.Page] = append(c.held[m.Page], func() { c.handleWB(src, m) })
}

func (c *Controller) holdFlush(src mem.NodeID, m FlushMsg) {
	c.held[m.Page] = append(c.held[m.Page], func() { c.handleFlush(src, m) })
}

// RegisterMetrics registers the controller's protocol counters,
// occupancy, per-type message counts, hardware-lock statistics and
// latency histograms (including the PIT's and directory's counters,
// which live inside the controller).
func (c *Controller) RegisterMetrics(r *metrics.Registry) {
	nd := int(c.node)
	s := &c.Stats
	for _, ct := range []struct {
		name string
		v    *uint64
	}{
		{"remote_misses", &s.RemoteMisses},
		{"upgrades", &s.Upgrades},
		{"writebacks_sent", &s.WritebacksSent},
		{"invs_received", &s.InvsReceived},
		{"recalls_received", &s.RecallsReceived},
		{"invs_sent", &s.InvsSent},
		{"forwards", &s.Forwards},
		{"firewall_faults", &s.FirewallFaults},
		{"faults_seen", &s.FaultsSeen},
		{"home_served", &s.HomeServed},
		{"msg_get", &s.MsgGet},
		{"msg_data", &s.MsgData},
		{"msg_grant_ack", &s.MsgGrantAck},
		{"msg_inv", &s.MsgInv},
		{"msg_inv_ack", &s.MsgInvAck},
		{"msg_recall", &s.MsgRecall},
		{"msg_recall_resp", &s.MsgRecallResp},
		{"msg_wb", &s.MsgWB},
		{"msg_flush", &s.MsgFlush},
		{"msg_flush_ack", &s.MsgFlushAck},
		{"msg_lock_req", &s.MsgLockReq},
		{"msg_lock_grant", &s.MsgLockGrant},
		{"msg_unlock", &s.MsgUnlock},
	} {
		v := ct.v
		r.CounterFunc(nd, "coherence", ct.name, func() uint64 { return *v })
	}
	r.CounterFunc(nd, "coherence", "ctrl_grants", func() uint64 { return c.ctrl.Grants })
	r.CounterFunc(nd, "coherence", "ctrl_busy_cycles", func() uint64 { return uint64(c.ctrl.BusyTotal) })
	r.CounterFunc(nd, "coherence", "ctrl_wait_cycles", func() uint64 { return uint64(c.ctrl.WaitTotal) })
	c.histRemoteMiss = r.Histogram(nd, "coherence", "remote_miss_cycles", metrics.DefaultLatencyBounds)

	sy := &c.SyncStats
	r.CounterFunc(nd, "sync", "hw_acquires", func() uint64 { return sy.Acquires })
	r.CounterFunc(nd, "sync", "hw_handoffs", func() uint64 { return sy.Handoffs })
	r.GaugeFunc(nd, "sync", "hw_max_queue", func() float64 { return float64(sy.MaxQueue) })
	c.histLockAcquire = r.Histogram(nd, "sync", "lock_acquire_cycles", metrics.DefaultLatencyBounds)
	c.histLockQueue = r.Histogram(nd, "sync", "lock_queue_wait_cycles", metrics.DefaultLatencyBounds)

	ps := &c.PIT.Stats
	r.CounterFunc(nd, "pit", "lookups", func() uint64 { return ps.Lookups })
	r.CounterFunc(nd, "pit", "reverse_guess", func() uint64 { return ps.ReverseGuess })
	r.CounterFunc(nd, "pit", "reverse_hash", func() uint64 { return ps.ReverseHash })
	r.CounterFunc(nd, "pit", "firewall_drops", func() uint64 { return ps.FirewallDrops })

	ds := &c.Dir.Stats
	r.CounterFunc(nd, "directory", "accesses", func() uint64 { return ds.Accesses })
	r.CounterFunc(nd, "directory", "cache_hits", func() uint64 { return ds.CacheHits })
	r.CounterFunc(nd, "directory", "cache_misses", func() uint64 { return ds.CacheMisses })
}

// ResetStats clears the controller's measurement state, following the
// machine-wide reset contract: protocol counters, hardware-lock
// statistics, PIT/directory counters, occupancy statistics and
// latency histograms clear; protocol state (transactions, lock
// queues, PIT/directory contents) and occupancy horizons persist.
func (c *Controller) ResetStats() {
	c.Stats.Reset()
	c.SyncStats = SyncStats{}
	c.PIT.ResetStats()
	c.Dir.ResetStats()
	c.ctrl.Reset()
	c.histRemoteMiss.Reset()
	c.histLockAcquire.Reset()
	c.histLockQueue.Reset()
}
