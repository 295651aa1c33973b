package network

import (
	"fmt"

	"prism/internal/fault"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/pool"
	"prism/internal/sim"
)

// The recovery transport. When a fault plan is active the interconnect can
// drop, duplicate, or delay messages, but the protocol layers above were
// built for a perfect fabric: coherence and kernel flows assume every
// message arrives exactly once and that the network is FIFO per node pair
// (internal/coherence/sync.go documents the ordering assumption the grant
// protocol leans on). Rather than teach all 21 message types bespoke
// recovery, the network restores exactly those semantics under loss:
//
//   - every payload is wrapped in a sequenced envelope per (src,dst) link;
//   - the receiver acks each envelope, suppresses duplicates by sequence
//     number, and buffers out-of-order arrivals so handlers still see
//     per-link FIFO delivery;
//   - the sender keeps one pooled pending record per unacked message whose
//     embedded timeout event retransmits with bounded exponential backoff
//     until acked, aborting the run at a retry cap.
//
// Retransmits and acks pay real NI occupancy and wire latency, so recovery
// shows up in the timing results, not just the counters. The whole layer is
// bypassed when no plan is active: Send and delivery take their fault-free
// fast paths (one nil check), which keeps fault-free runs byte-identical.
//
// Pointer hygiene under retransmission: protocol message objects are pooled
// and released on first delivery (PR 4), so a late retransmit can carry a
// pointer whose object has been recycled. That is safe by construction —
// any retransmit of a delivered sequence number is suppressed by the
// receiver's sequence check before the payload pointer is ever touched.

// ackBytes is the wire size of a transport acknowledgement.
const ackBytes = 8

// envelope wraps one payload transmission on a sequenced link.
type envelope struct {
	seq   uint64
	class fault.Class
	msg   Message
}

// wireAck acknowledges receipt of one envelope sequence number.
type wireAck struct {
	seq uint64
}

// FaultClass lets the injector target the recovery layer's own traffic.
func (*wireAck) FaultClass() fault.Class { return fault.ClassTransport }

// pendKey identifies an unacked transmission.
type pendKey struct {
	src, dst mem.NodeID
	seq      uint64
}

// linkState is one direction of one node pair.
type linkState struct {
	sendNext uint64 // next sequence number to assign
	recvNext uint64 // next sequence number to deliver
	// held buffers out-of-order arrivals until the gap fills; allocated
	// lazily since most links never see reordering.
	held map[uint64]*envelope
}

// pendingMsg is a sender-side record of one unacked message. It is its own
// timeout event (sim.EventHandler): exactly one timer is outstanding per
// record at all times, so cancellation is lazy — an ack just marks the
// record, and the already-scheduled timer firing returns it to the pool.
type pendingMsg struct {
	tr        *transport
	src, dst  mem.NodeID
	seq       uint64
	class     fault.Class
	msg       Message
	size      int
	attempts  int
	rto       sim.Time
	firstSend sim.Time
	acked     bool
}

// TransportStats counts recovery work per fault class.
type TransportStats struct {
	Timeouts      [fault.NumClasses]uint64
	Retransmits   [fault.NumClasses]uint64
	DupSuppressed [fault.NumClasses]uint64
	Reordered     [fault.NumClasses]uint64
	AcksIgnored   uint64
}

type transport struct {
	n        *Network
	inj      *fault.Injector
	nodes    int
	rto      sim.Time
	rtoMax   sim.Time
	retryCap int

	links   []linkState
	pending map[pendKey]*pendingMsg

	freePend pool.Free[pendingMsg]
	freeEnv  pool.Free[envelope]
	freeAck  pool.Free[wireAck]

	stats     TransportStats
	histRetry *metrics.Histogram
}

func newTransport(n *Network, plan *fault.Plan) *transport {
	nodes := n.Nodes()
	return &transport{
		n:        n,
		inj:      fault.NewInjector(plan),
		nodes:    nodes,
		rto:      plan.ResolvedRTO(),
		rtoMax:   plan.ResolvedRTOMax(),
		retryCap: plan.ResolvedRetryCap(),
		links:    make([]linkState, nodes*nodes),
		pending:  make(map[pendKey]*pendingMsg),
	}
}

// EnableFaults arms the fault injector and the recovery transport. A nil or
// inert plan (all rates zero, nothing scripted) is a no-op: the network
// keeps its perfect-fabric fast path and produces byte-identical results.
// Call before any traffic is sent.
func (n *Network) EnableFaults(plan *fault.Plan) {
	if !plan.Active() {
		return
	}
	n.tr = newTransport(n, plan)
}

// FaultsEnabled reports whether the recovery transport is armed.
func (n *Network) FaultsEnabled() bool { return n.tr != nil }

// FaultStats exposes injector counters for tests; nil-safe.
func (n *Network) FaultStats() *fault.Stats {
	if n.tr == nil {
		return nil
	}
	return &n.tr.inj.Stats
}

// TransportStats exposes recovery counters for tests; nil-safe.
func (n *Network) TransportStats() *TransportStats {
	if n.tr == nil {
		return nil
	}
	return &n.tr.stats
}

// link returns the directional link state for src->dst.
func (tr *transport) link(src, dst mem.NodeID) *linkState {
	return &tr.links[int(src)*tr.nodes+int(dst)]
}

// send wraps msg in a sequenced envelope, transmits it through the
// injector, and arms the retransmission timer.
func (tr *transport) send(at sim.Time, src, dst mem.NodeID, size int, msg Message) {
	seq := tr.link(src, dst).sendNext
	tr.link(src, dst).sendNext++

	p := tr.freePend.Get()
	p.tr, p.src, p.dst, p.seq, p.msg, p.size = tr, src, dst, seq, msg, size
	p.class = fault.ClassOf(msg)
	p.attempts = 1
	p.rto = tr.rto
	p.firstSend = at
	tr.pending[pendKey{src, dst, seq}] = p

	injected := tr.transmit(p, at)
	tr.n.e.AtEvent(injected+p.rto, p)
}

// transmit pushes one copy of p through the send NI and the fault
// injector, scheduling whatever the injector lets onto the wire. Returns
// the NI injection time the retransmission timer should count from.
func (tr *transport) transmit(p *pendingMsg, at sim.Time) sim.Time {
	n := tr.n
	occ := n.occupancy(p.size)
	injected := n.sendNI[p.src].Acquire(at, occ) + occ
	d := tr.inj.Decide(p.class, int(p.src), int(p.dst))
	if d.Drop {
		return injected
	}
	env := tr.freeEnv.Get()
	env.seq, env.class, env.msg = p.seq, p.class, p.msg
	n.scheduleInflight(p.src, p.dst, env, occ, injected+n.cfg.Latency+d.Delay)
	if d.Dup {
		dup := tr.freeEnv.Get()
		*dup = *env
		n.scheduleInflight(p.src, p.dst, dup, occ, injected+n.cfg.Latency+d.DupDelay)
	}
	return injected
}

// OnEvent is the retransmission timer. Acked records free themselves here
// (lazy cancellation); live ones back off and go again.
func (p *pendingMsg) OnEvent(now sim.Time) {
	tr := p.tr
	if p.acked {
		tr.freePend.Put(p)
		return
	}
	tr.stats.Timeouts[p.class]++
	if p.attempts >= tr.retryCap {
		panic(fmt.Sprintf(
			"network: %s message %d->%d seq %d still undelivered after %d attempts; fault rates too high for the retry cap",
			p.class, p.src, p.dst, p.seq, p.attempts))
	}
	p.attempts++
	tr.stats.Retransmits[p.class]++
	if p.rto < tr.rtoMax {
		p.rto *= 2
		if p.rto > tr.rtoMax {
			p.rto = tr.rtoMax
		}
	}
	injected := tr.transmit(p, now)
	tr.n.e.AtEvent(injected+p.rto, p)
}

// deliverEnvelope runs at the receiver when an envelope clears the receive
// NI: ack it, then deliver in sequence order, suppressing duplicates and
// buffering early arrivals so the layers above still see a FIFO link.
func (tr *transport) deliverEnvelope(now sim.Time, src, dst mem.NodeID, env *envelope) {
	// Always ack, even duplicates: the original ack may have been lost,
	// and the sender stops retransmitting only when one gets through.
	tr.sendAck(now, dst, src, env.seq)

	link := tr.link(src, dst)
	switch {
	case env.seq < link.recvNext:
		tr.stats.DupSuppressed[env.class]++
		tr.freeEnv.Put(env)

	case env.seq == link.recvNext:
		link.recvNext++
		msg := env.msg
		tr.freeEnv.Put(env)
		tr.n.handlers[dst].Deliver(src, msg)
		for {
			held, ok := link.held[link.recvNext]
			if !ok {
				break
			}
			delete(link.held, link.recvNext)
			link.recvNext++
			m := held.msg
			tr.freeEnv.Put(held)
			tr.n.handlers[dst].Deliver(src, m)
		}

	default: // early: a predecessor is still missing
		if link.held == nil {
			link.held = make(map[uint64]*envelope)
		}
		if _, dup := link.held[env.seq]; dup {
			tr.stats.DupSuppressed[env.class]++
			tr.freeEnv.Put(env)
			return
		}
		tr.stats.Reordered[env.class]++
		link.held[env.seq] = env
	}
}

// sendAck transmits a transport ack from node `from` back to `to`. Acks are
// unsequenced and unacked themselves — a lost ack is repaired by the
// sender's retransmission drawing a fresh ack.
func (tr *transport) sendAck(at sim.Time, from, to mem.NodeID, seq uint64) {
	n := tr.n
	occ := n.occupancy(ackBytes)
	injected := n.sendNI[from].Acquire(at, occ) + occ
	d := tr.inj.Decide(fault.ClassTransport, int(from), int(to))
	if d.Drop {
		return
	}
	a := tr.freeAck.Get()
	a.seq = seq
	n.scheduleInflight(from, to, a, occ, injected+n.cfg.Latency+d.Delay)
	if d.Dup {
		dup := tr.freeAck.Get()
		dup.seq = seq
		n.scheduleInflight(from, to, dup, occ, injected+n.cfg.Latency+d.DupDelay)
	}
}

// deliverAck runs at the original sender. src is the acking node.
func (tr *transport) deliverAck(now sim.Time, src, dst mem.NodeID, a *wireAck) {
	key := pendKey{src: dst, dst: src, seq: a.seq}
	tr.freeAck.Put(a)
	p, ok := tr.pending[key]
	if !ok {
		// Duplicate or stale ack: the record was already acked and removed.
		tr.stats.AcksIgnored++
		return
	}
	p.acked = true
	p.msg = nil
	delete(tr.pending, key)
	if p.attempts > 1 {
		tr.histRetry.Observe(now - p.firstSend)
	}
}

// CheckQuiesced verifies the transport has no residual state: every sent
// message acked, no out-of-order arrivals still buffered. Both hold by
// construction once the event queue drains (an unacked record keeps a
// timer live), so a violation here means a transport bug.
func (n *Network) CheckQuiesced() error {
	tr := n.tr
	if tr == nil {
		return nil
	}
	if len(tr.pending) != 0 {
		return fmt.Errorf("network: %d transmissions still unacked at quiesce", len(tr.pending))
	}
	for i := range tr.links {
		if len(tr.links[i].held) != 0 {
			return fmt.Errorf("network: link %d->%d holds %d undelivered out-of-order messages at quiesce",
				i/tr.nodes, i%tr.nodes, len(tr.links[i].held))
		}
	}
	return nil
}

// registerMetrics exposes injector and recovery counters under the "fault"
// component, machine-scoped. Deliberately registered only when a plan is
// active: fault-free runs must export metrics byte-identical to builds
// without this subsystem.
func (tr *transport) registerMetrics(r *metrics.Registry) {
	for c := 0; c < fault.NumClasses; c++ {
		cl := fault.Class(c)
		name := cl.String()
		inj := &tr.inj.Stats
		st := &tr.stats
		r.CounterFunc(metrics.MachineScope, "fault", name+"_sent", func() uint64 { return inj.Sent[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_dropped", func() uint64 { return inj.Dropped[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_duped", func() uint64 { return inj.Duped[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_delayed", func() uint64 { return inj.Delayed[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_timeouts", func() uint64 { return st.Timeouts[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_retransmits", func() uint64 { return st.Retransmits[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_dup_suppressed", func() uint64 { return st.DupSuppressed[cl] })
		r.CounterFunc(metrics.MachineScope, "fault", name+"_reordered", func() uint64 { return st.Reordered[cl] })
	}
	r.CounterFunc(metrics.MachineScope, "fault", "acks_ignored", func() uint64 { return tr.stats.AcksIgnored })
	tr.histRetry = r.Histogram(metrics.MachineScope, "fault", "retry_latency_cycles", metrics.DefaultLatencyBounds)
}

// resetStats clears fault and recovery counters. Link sequence numbers,
// scripted-fault progress, and unacked pending records are structural state
// and persist (the reset contract: counters clear, the machine keeps
// working).
func (tr *transport) resetStats() {
	tr.inj.ResetStats()
	tr.stats = TransportStats{}
	tr.histRetry.Reset()
}
