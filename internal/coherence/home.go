package coherence

import (
	"fmt"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// reply sends the home's response for a Get transaction.
func (c *Controller) reply(t sim.Time, dst mem.NodeID, m GetMsg, withData, excl, fault bool, homeFrame mem.FrameID) {
	size := c.tm.MsgHeader
	if withData {
		size += c.tm.LineBytes
	}
	out := c.ctrlBusy(t, c.tm.CtrlOut)
	d := c.pools.data.Get()
	d.Page, d.Line, d.ReqFrame = m.Page, m.Line, m.ReqFrame
	d.Excl, d.WithData, d.Fault = excl, withData, fault
	d.HomeFrame, d.DynHome = homeFrame, c.node
	c.send(out, dst, size, d)
}

// routeAway picks where to send a request this node cannot serve: the
// migration tombstone if one exists, else via the static home.
func (c *Controller) routeAway(g mem.GPage) mem.NodeID {
	if dst, ok := c.forwardTarget(g); ok {
		return dst
	}
	if c.node == c.router.StaticHome(g) {
		return c.router.DynamicHome(g)
	}
	return c.router.StaticHome(g)
}

// forward re-routes a request that arrived at a node which no longer
// (or never) holds the page's directory — the misdirected-request path
// of lazy page migration (§3.5).
func (c *Controller) forward(t sim.Time, src mem.NodeID, m GetMsg) {
	if m.Hops > 2*c.net.Nodes() {
		panic(fmt.Sprintf("coherence: routing loop for %v (hops=%d)", m.Page, m.Hops))
	}
	dst := c.routeAway(m.Page)
	if dst == c.node {
		panic(fmt.Sprintf("coherence: node %d cannot route %v: registry says it is here", c.node, m.Page))
	}
	c.Stats.Forwards++
	fm := c.pools.get.Get()
	*fm = m
	fm.Hops++
	fm.HomeFrameOK = false // the hint was for the wrong node
	out := c.ctrlBusy(t, c.tm.CtrlOut)
	c.send(out, dst, c.tm.MsgHeader, fm)
	// Forwarding preserves the original requester: the eventual reply
	// goes straight back to src with the new DynHome, which is how
	// client PIT entries self-correct.
	_ = src
}

// lockLine marks a line busy for a multi-party home transaction; then
// selects what the last ack does (see homeTxn). The caller fills in any
// continuation state on the returned record.
func (c *Controller) lockLine(key lineKey, needAcks int, then txnThen) *homeTxn {
	if c.home[key] != nil {
		panic(fmt.Sprintf("coherence: node %d: line %v already locked", c.node, key))
	}
	txn := c.freeHome.Get()
	txn.needAcks, txn.then = needAcks, then
	c.home[key] = txn
	return txn
}

// unlockLine releases a line and restarts queued requests.
func (c *Controller) unlockLine(key lineKey) {
	if txn := c.home[key]; txn != nil {
		delete(c.home, key)
		c.freeHome.Put(txn)
	}
	c.drainQueue(key)
}

// drainQueue pops one queued request for the line and re-dispatches it
// in a zero-delay event. If that request completes synchronously (it
// did not re-lock the line), the event drains the next one in turn —
// otherwise its unlockLine continues the drain.
func (c *Controller) drainQueue(key lineKey) {
	q := c.homeQ[key]
	if len(q) == 0 {
		delete(c.homeQ, key)
		return
	}
	ev := c.freeDrain.Get()
	ev.c, ev.m, ev.key = c, q[0], key
	if len(q) == 1 {
		delete(c.homeQ, key)
	} else {
		c.homeQ[key] = q[1:]
	}
	c.e.ScheduleEvent(0, ev)
}

// drainEvent is the pooled record that re-dispatches one queued Get.
type drainEvent struct {
	c   *Controller
	m   GetMsg
	key lineKey
}

func (ev *drainEvent) OnEvent(sim.Time) {
	c, m, key := ev.c, ev.m, ev.key
	c.freeDrain.Put(ev)
	c.handleGet(m.From, m, true)
	if c.home[key] == nil {
		c.drainQueue(key)
	}
}

// ack counts one acknowledgement toward a home transaction.
func (c *Controller) ack(key lineKey) {
	txn := c.home[key]
	if txn == nil {
		// A stale ack (e.g. the sharer was also dropped by a page-out
		// that completed the transaction early). Ignore.
		return
	}
	txn.needAcks--
	if txn.needAcks == 0 {
		switch txn.then {
		case thenUnlock:
			c.unlockLine(key)
		case thenGrantExcl:
			c.grantExcl(key, txn)
		}
	}
}

// handleGet is the home side of the protocol: Figure 4's "translate,
// compose message, consult directory" path. m arrives by value: the
// delivered message is already back in its pool, and a transaction
// that outlives the call keeps its copy in the homeTxn.
func (c *Controller) handleGet(src mem.NodeID, m GetMsg, requeued bool) {
	// The request may have been forwarded; the requester is m.From,
	// not the transport-level sender.
	src = m.From
	t := c.e.Now()
	if !requeued {
		t = c.ctrlBusy(t, c.tm.CtrlIn)
	}

	f, ok, cost := c.PIT.ReverseLookup(m.Page, m.HomeFrame, m.HomeFrameOK)
	t += cost
	if !ok {
		c.forward(t, src, m)
		return
	}
	ent := c.PIT.Entry(f)
	if ent == nil || !ent.Valid() || ent.GPage != m.Page {
		c.forward(t, src, m)
		return
	}
	if ent.DynHome != c.node {
		// This node was the page's home once but the dynamic home
		// migrated: its own PIT entry acts as the tombstone.
		c.forward(t, src, m)
		return
	}

	if src != c.node && !c.PIT.CheckAccess(f, src) {
		c.Stats.FirewallFaults++
		c.reply(t, src, m, false, false, true, f)
		return
	}

	key := keyOf(m.Page, m.Line)
	if c.home[key] != nil {
		c.homeQ[key] = append(c.homeQ[key], m)
		return
	}

	e, dcost, hasDir := c.Dir.Access(m.Page, m.Line)
	t += dcost
	if !hasDir {
		c.forward(t, src, m)
		return
	}

	c.Stats.HomeServed++
	c.PIT.Touch(f, m.Line, t, src != c.node)
	if src != c.node {
		c.recordTraffic(m.Page, src)
	}
	if c.cfg.DirClientHints && src != c.node {
		cf := c.clientFrames[m.Page]
		if cf == nil {
			cf = make(map[mem.NodeID]mem.FrameID)
			c.clientFrames[m.Page] = cf
		}
		cf[src] = m.ReqFrame
	}

	pa := mem.NewPAddr(c.geom, f, m.Line*c.geom.LineSize)

	switch {
	case e.Excl && e.Owner == c.node && src != c.node:
		// The home's own processors may hold the line modified:
		// retrieve it over the home bus (Table 1: "2-party read/write
		// to a modified line").
		c.lockLine(key, 1, thenWired)
		ev := c.freeGet.Get()
		ev.c, ev.m, ev.src, ev.pa, ev.f, ev.key = c, m, src, pa, f, key
		ev.ent, ev.line = ent, e
		c.e.AtEvent(t, ev)

	case e.Excl && e.Owner == src:
		// The owner re-requests: it silently evicted its copy (clean
		// LA-NUMA eviction). Home memory is current; re-grant
		// exclusivity regardless of the request flavor.
		c.lockLine(key, 1, thenUnlock)
		rm := c.memAccess(t, c.tm.MemRead)
		c.reply(rm, src, m, true, true, false, f)

	case e.Excl:
		// Third-party owner: forward the request (Table 1: "3-party
		// read/write"). The owner sends the data directly to the
		// requester; the home waits only for the sharing writeback.
		owner := e.Owner
		txn := c.lockLine(key, 2, thenUnlock)
		txn.recall = true
		txn.m, txn.src, txn.owner, txn.f, txn.line = m, src, owner, f, e
		hint, hintOK := c.clientHint(m.Page, owner)
		out := c.ctrlBusy(t, c.tm.CtrlOut)
		rc := c.pools.recall.Get()
		rc.Page, rc.Line, rc.Inval = m.Page, m.Line, m.Excl
		rc.ClientFrame, rc.ClientFrameOK = hint, hintOK
		rc.Requester, rc.ReqFrame, rc.HomeFrame = src, m.ReqFrame, f
		c.send(out, owner, c.tm.MsgHeader, rc)

	case !m.Excl:
		// GETS on a shared (or uncached) line: home memory is current.
		e.AddSharer(src)
		excl := e.SharerCount() == 1
		if excl {
			*e = dirLineExcl(src)
			if src != c.node && ent.Mode == pit.ModeSCOMA {
				// Home granted exclusivity away; its own tag must not
				// claim the line (it had no copy: it was not a sharer).
				c.PIT.SetTag(f, m.Line, pit.TagInvalid)
			}
		}
		c.lockLine(key, 1, thenUnlock)
		rm := c.memAccess(t, c.tm.MemRead)
		c.reply(rm, src, m, true, excl, false, f)

	case m.Excl:
		// GETX on a shared line: invalidate every other sharer
		// (Table 1: "(3+n)-party write to shared line"). The sharer
		// scratch slice is consumed before handleGet returns.
		sharers := c.sharerScratch[:0]
		for n := 0; n < c.net.Nodes(); n++ {
			if id := mem.NodeID(n); id != src && e.IsSharer(id) {
				sharers = append(sharers, id)
			}
		}
		c.sharerScratch = sharers[:0]
		withData := !(m.HaveData && e.IsSharer(src))
		if len(sharers) == 0 {
			*e = dirLineExcl(src)
			if src != c.node && ent.Mode == pit.ModeSCOMA {
				c.PIT.SetTag(f, m.Line, pit.TagInvalid)
			}
			// The home reads memory even on an upgrade (validation of
			// the grant), though no data payload crosses the network.
			c.lockLine(key, 1, thenUnlock)
			rm := c.memAccess(t, c.tm.MemRead)
			c.reply(rm, src, m, withData, true, false, f)
			return
		}
		txn := c.lockLine(key, len(sharers), thenGrantExcl)
		txn.m, txn.src, txn.f, txn.ent, txn.line, txn.withData = m, src, f, ent, e, withData
		for i, s := range sharers {
			stagger := sim.Time(i) * c.tm.InvStagger
			if s == c.node {
				// Invalidate the home's own copies locally.
				if ent.Mode == pit.ModeSCOMA && ent.Tags[m.Line] != pit.TagTransit {
					c.PIT.SetTag(f, m.Line, pit.TagInvalid)
				}
				ev := c.freeAck.Get()
				ev.c, ev.pa, ev.key = c, pa, key
				c.e.AtEvent(t+stagger, ev)
				continue
			}
			c.Stats.InvsSent++
			hint, hintOK := c.clientHint(m.Page, s)
			out := c.ctrlBusy(t+stagger, c.tm.CtrlOut)
			iv := c.pools.inv.Get()
			iv.Page, iv.Line = m.Page, m.Line
			iv.ClientFrame, iv.ClientFrameOK = hint, hintOK
			c.send(out, s, c.tm.MsgHeader, iv)
		}
	}
}

func dirLineExcl(owner mem.NodeID) directory.Line {
	return directory.Line{Excl: true, Owner: owner}
}

// grantExcl completes a GETX on a shared line once every sharer has
// acknowledged its invalidation: the requester becomes the exclusive
// owner and the line waits only for its grant ack.
func (c *Controller) grantExcl(key lineKey, txn *homeTxn) {
	*txn.line = dirLineExcl(txn.src)
	if txn.src != c.node && txn.ent.Mode == pit.ModeSCOMA {
		c.PIT.SetTag(txn.f, txn.m.Line, pit.TagInvalid)
	}
	at := c.memAccess(c.e.Now(), c.tm.MemRead)
	c.reply(at, txn.src, txn.m, txn.withData, true, false, txn.f)
	c.awaitGrantAck(key)
}

// recallDone continues a 3-party transaction when the owner answers
// the recall: it updates the directory and, if the owner had silently
// evicted its copy and could not supply the data, replies from home
// memory.
func (c *Controller) recallDone(txn *homeTxn, resp *RecallRespMsg) {
	at := c.e.Now()
	if resp.Dirty {
		at = c.memAccess(at, c.tm.MemWrite)
	}
	e := txn.line
	if txn.m.Excl {
		*e = dirLineExcl(txn.src)
	} else if resp.Had {
		e.Excl = false
		e.Owner = 0
		e.Sharers = directory.NodeSet{}
		e.AddSharer(txn.owner)
		e.AddSharer(txn.src)
	} else {
		// Owner had silently evicted and could not reply: the home
		// supplies the data and grants exclusivity (sole copy).
		*e = dirLineExcl(txn.src)
	}
	if !resp.Had {
		rm := c.memAccess(at, c.tm.MemRead)
		c.reply(rm, txn.src, txn.m, true, true, false, txn.f)
	}
}

// getEvent is the pooled bus-retrieve record for a 2-party Get whose
// line is modified under the home's own processors (handleGet's first
// case): its Retrieved updates the directory and replies.
type getEvent struct {
	c    *Controller
	m    GetMsg
	src  mem.NodeID
	pa   mem.PAddr
	f    mem.FrameID
	key  lineKey
	ent  *pit.Entry
	line *directory.Line
}

func (ev *getEvent) OnEvent(sim.Time) { ev.c.local.Retrieve(ev.pa, ev.m.Excl, ev) }

// Retrieved implements Retrieval.
func (ev *getEvent) Retrieved(at sim.Time, dirty bool) {
	c, m, e, src := ev.c, &ev.m, ev.line, ev.src
	if dirty {
		at = c.memAccess(at, c.tm.MemWrite)
	}
	if ev.ent.Mode == pit.ModeSCOMA {
		if m.Excl {
			c.PIT.SetTag(ev.f, m.Line, pit.TagInvalid)
		} else {
			c.PIT.SetTag(ev.f, m.Line, pit.TagShared)
		}
		ev.ent.Dirty[m.Line] = false
	}
	if m.Excl {
		*e = dirLineExcl(src)
	} else {
		e.Excl = false
		e.Owner = 0
		e.Sharers = directory.NodeSet{}
		e.AddSharer(c.node)
		e.AddSharer(src)
	}
	rm := c.memAccess(at, c.tm.MemRead)
	c.reply(rm, src, *m, true, m.Excl, false, ev.f)
	c.awaitGrantAck(ev.key)
	c.freeGet.Put(ev)
}

// ackEvent is the pooled record for invalidating the home's own copy
// of a line during a GETX: retrieve over the home bus, then ack.
type ackEvent struct {
	c   *Controller
	pa  mem.PAddr
	key lineKey
}

func (ev *ackEvent) OnEvent(sim.Time) { ev.c.local.Retrieve(ev.pa, true, ev) }

// Retrieved implements Retrieval.
func (ev *ackEvent) Retrieved(sim.Time, bool) {
	c, key := ev.c, ev.key
	c.freeAck.Put(ev)
	c.ack(key)
}

// clientHint returns the cached client frame for (page, node) when the
// DirClientHints option is enabled.
func (c *Controller) clientHint(g mem.GPage, n mem.NodeID) (mem.FrameID, bool) {
	if !c.cfg.DirClientHints {
		return 0, false
	}
	f, ok := c.clientFrames[g][n]
	return f, ok
}

// awaitGrantAck converts a locked line's transaction into one waiting
// solely for the requester's GrantAckMsg.
func (c *Controller) awaitGrantAck(key lineKey) {
	txn := c.home[key]
	if txn == nil {
		panic("coherence: awaitGrantAck without locked line")
	}
	txn.needAcks = 1
	txn.then = thenUnlock
}

// handleGrantAck unlocks a line whose grant has been consumed.
func (c *Controller) handleGrantAck(src mem.NodeID, m *GrantAckMsg) {
	c.ctrlBusy(c.e.Now(), c.tm.CtrlIn/4)
	c.ack(keyOf(m.Page, m.Line))
}

// handleInvAck counts an invalidation acknowledgement.
func (c *Controller) handleInvAck(src mem.NodeID, m *InvAckMsg) {
	c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	c.ack(keyOf(m.Page, m.Line))
}

// handleRecallResp resumes the transaction waiting on a recall.
func (c *Controller) handleRecallResp(src mem.NodeID, m *RecallRespMsg) {
	c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	key := keyOf(m.Page, m.Line)
	txn := c.home[key]
	if txn == nil || !txn.recall {
		return // transaction superseded by a page drop
	}
	txn.recall = false
	c.recallDone(txn, m)
	c.ack(key)
}

// handleWB applies a dirty LA-NUMA eviction writeback to home memory.
// m arrives by value: the delivered message is already back in its pool.
func (c *Controller) handleWB(src mem.NodeID, m WBMsg) {
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn)
	f, ok, cost := c.PIT.ReverseLookup(m.Page, m.HomeFrame, m.HomeFrameOK)
	t += cost
	if ok {
		if ent := c.PIT.Entry(f); ent == nil || !ent.Valid() || ent.GPage != m.Page || ent.DynHome != c.node {
			ok = false // not (or no longer) the home
		}
	}
	if !ok {
		// Page migrated away mid-flight; forward the writeback.
		dst := c.routeAway(m.Page)
		if dst != c.node {
			c.Stats.Forwards++
			fm := c.pools.wb.Get()
			*fm = m
			fm.HomeFrameOK = false
			c.send(t, dst, c.tm.MsgHeader+c.tm.LineBytes, fm)
		}
		return
	}
	c.memAccess(t, c.tm.MemWrite)
	e, _, hasDir := c.Dir.Access(m.Page, m.Line)
	if hasDir && e.Excl && e.Owner == src {
		e.Excl = false
		e.Owner = 0
		e.Sharers = directory.NodeSet{}
	}
}

// handleFlush applies a page flush (page-out or mode conversion) from
// a client: writes back the dirty lines, removes the client from the
// page's directory, optionally notifies the kernel, and acknowledges.
// m arrives by value and owns its DirtyLines buffer: the node that
// finally applies the flush reclaims it (a forward passes it onward).
func (c *Controller) handleFlush(src mem.NodeID, m FlushMsg) {
	t := c.ctrlBusy(c.e.Now(), c.tm.CtrlIn+sim.Time(len(m.DirtyLines))*2)
	f, ok, cost := c.PIT.ReverseLookup(m.Page, m.HomeFrame, m.HomeFrameOK)
	t += cost
	if ok {
		if ent := c.PIT.Entry(f); ent == nil || !ent.Valid() || ent.GPage != m.Page || ent.DynHome != c.node {
			ok = false
		}
	}
	if !ok {
		// The dynamic home moved; forward the flush so the dirty data
		// and directory drop land at the authoritative node.
		if dst := c.routeAway(m.Page); dst != c.node {
			c.Stats.Forwards++
			fm := c.pools.flush.Get()
			*fm = m
			fm.HomeFrameOK = false
			c.send(t, dst, c.tm.MsgHeader+len(m.DirtyLines)*c.tm.LineBytes, fm)
			return
		}
		ok = false
	}
	if ok {
		if len(m.DirtyLines) > 0 {
			t = c.memAccess(t, sim.Time(len(m.DirtyLines))*c.tm.MemWrite)
		}
		// In-flight invalidations to this client are still acked by it
		// (clients ack unmapped frames), so pending transactions drain
		// naturally; the drop only cleans the directory's view.
		c.Dir.DropNode(m.Page, m.From)
	}
	if m.Drop && c.pager != nil {
		c.pager.ClientDropped(m.Page, m.From)
	}
	fa := c.pools.flushAck.Get()
	fa.Page, fa.Token = m.Page, m.Token
	c.send(t, m.From, c.tm.MsgHeader, fa)
	c.putInts(m.DirtyLines)
}
