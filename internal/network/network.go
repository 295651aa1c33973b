// Package network models the inter-node interconnect: point-to-point
// message delivery with a fixed one-way latency (120 cycles in the
// paper's configuration) plus per-node network-interface occupancy on
// both the send and receive sides.
//
// Network switches themselves are not a contention point (the paper
// accounts latency and contention "at all system resources except the
// processor internals and network switches"); the NIs are.
package network

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/sim"
)

// Message is any payload delivered between nodes. Concrete types are
// defined by the coherence and kernel layers.
type Message interface{}

// Handler receives messages addressed to one node. Deliver runs in
// engine context at the message's arrival time.
type Handler interface {
	Deliver(src mem.NodeID, msg Message)
}

// Config parameterizes the interconnect.
type Config struct {
	Latency    sim.Time // one-way end-to-end latency (120)
	NIOverhead sim.Time // per-message NI occupancy independent of size
	LinkBytes  int      // bytes moved per cycle through an NI (occupancy)
}

// DefaultConfig matches the paper's machine (the NI overhead is tuned
// so the Table 1 microbenchmark lands near the paper's latencies).
var DefaultConfig = Config{Latency: 120, NIOverhead: 20, LinkBytes: 8}

// Stats counts network activity.
type Stats struct {
	Messages uint64
	Bytes    uint64
}

// Network connects n nodes.
type Network struct {
	e        *sim.Engine
	cfg      Config
	handlers []Handler
	sendNI   []sim.Resource
	recvNI   []sim.Resource

	// free is a free list of inflight events. Message delivery is the
	// hottest event shape after coroutine steps, so in-flight messages
	// ride pooled two-stage event objects instead of allocating two
	// closures each; the pool grows to the peak in-flight count and
	// then the steady state allocates nothing. Single-goroutine like
	// everything else hanging off one engine.
	free []*inflight

	// tr is the fault-injection recovery transport (transport.go), nil
	// unless a fault plan is active. The fault-free hot path pays one
	// nil check in Send and one in delivery.
	tr *transport

	Stats Stats
}

// inflight is one in-flight message: an arrival event at the receive
// NI followed by a handler invocation once the NI grants it.
type inflight struct {
	n        *Network
	src, dst mem.NodeID
	msg      Message
	occ      sim.Time
	arrived  bool
}

// OnEvent implements sim.EventHandler: first firing models receive-NI
// occupancy and reschedules; second firing delivers and returns the
// object to the pool.
func (d *inflight) OnEvent(now sim.Time) {
	if !d.arrived {
		d.arrived = true
		ready := d.n.recvNI[d.dst].Acquire(now, d.occ) + d.occ
		d.n.e.AtEvent(ready, d)
		return
	}
	n, src, dst, msg := d.n, d.src, d.dst, d.msg
	d.msg = nil // release the payload before pooling
	n.free = append(n.free, d)
	if n.tr != nil {
		// With the recovery transport armed every wire message is an
		// envelope or a transport ack; unwrap before the handler.
		switch m := msg.(type) {
		case *envelope:
			n.tr.deliverEnvelope(now, src, dst, m)
			return
		case *wireAck:
			n.tr.deliverAck(now, src, dst, m)
			return
		}
	}
	n.handlers[dst].Deliver(src, msg)
}

// New builds a network for nodes nodes.
func New(e *sim.Engine, nodes int, cfg Config) *Network {
	n := &Network{
		e:        e,
		cfg:      cfg,
		handlers: make([]Handler, nodes),
		sendNI:   make([]sim.Resource, nodes),
		recvNI:   make([]sim.Resource, nodes),
	}
	for i := range n.sendNI {
		n.sendNI[i].Name = fmt.Sprintf("ni%d.send", i)
		n.recvNI[i].Name = fmt.Sprintf("ni%d.recv", i)
	}
	return n
}

// Attach registers the handler for node id's inbound messages.
func (n *Network) Attach(id mem.NodeID, h Handler) {
	n.handlers[id] = h
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.handlers) }

// occupancy returns the NI busy time for a message of size bytes.
func (n *Network) occupancy(size int) sim.Time {
	t := n.cfg.NIOverhead
	if n.cfg.LinkBytes > 0 {
		t += sim.Time((size + n.cfg.LinkBytes - 1) / n.cfg.LinkBytes)
	}
	return t
}

// Send transmits msg from src to dst, delivering it to dst's handler
// at the modeled arrival time. at is the earliest time the message can
// enter src's NI (usually the sender's current model time). size is
// the message size in bytes (headers + payload), which drives NI
// occupancy. Send returns immediately; delivery is an engine event.
//
// Sending to the local node is permitted (the IPC server may be
// co-located) and still pays NI costs, matching loopback hardware.
func (n *Network) Send(at sim.Time, src, dst mem.NodeID, size int, msg Message) {
	if n.handlers[dst] == nil {
		panic(fmt.Sprintf("network: node %d has no handler attached", dst))
	}
	n.Stats.Messages++
	n.Stats.Bytes += uint64(size)

	if at < n.e.Now() {
		at = n.e.Now()
	}
	if n.tr != nil {
		// Lossy fabric: route through the recovery transport, which
		// sequences, times out, and retransmits. Stats above stay
		// logical — acks and retransmits count only in fault metrics.
		n.tr.send(at, src, dst, size, msg)
		return
	}
	occ := n.occupancy(size)
	injected := n.sendNI[src].Acquire(at, occ) + occ
	n.scheduleInflight(src, dst, msg, occ, injected+n.cfg.Latency)
}

// scheduleInflight books a pooled two-stage delivery event: receive-NI
// occupancy at arrive, then handler invocation.
func (n *Network) scheduleInflight(src, dst mem.NodeID, msg Message, occ sim.Time, arrive sim.Time) {
	var d *inflight
	if len(n.free) > 0 {
		d = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
	} else {
		d = &inflight{n: n}
	}
	d.src, d.dst, d.msg, d.occ, d.arrived = src, dst, msg, occ, false
	n.e.AtEvent(arrive, d)
}

// ResetStats clears counters (NI occupancy horizons are kept),
// following the machine-wide reset contract: measurement counters
// clear, structural state persists.
func (n *Network) ResetStats() {
	n.Stats = Stats{}
	for i := range n.sendNI {
		n.sendNI[i].Reset()
		n.recvNI[i].Reset()
	}
	if n.tr != nil {
		n.tr.resetStats()
	}
}

// RegisterMetrics registers the interconnect with the telemetry
// registry: machine-scope message/byte totals plus per-node NI
// occupancy (grants issued and busy/wait cycles on both the send and
// receive interfaces — the wait totals are the NI-occupancy stalls).
func (n *Network) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc(metrics.MachineScope, "network", "messages", func() uint64 { return n.Stats.Messages })
	r.CounterFunc(metrics.MachineScope, "network", "bytes", func() uint64 { return n.Stats.Bytes })
	for i := range n.sendNI {
		send, recv := &n.sendNI[i], &n.recvNI[i]
		r.CounterFunc(i, "network", "ni_send_grants", func() uint64 { return send.Grants })
		r.CounterFunc(i, "network", "ni_send_busy_cycles", func() uint64 { return uint64(send.BusyTotal) })
		r.CounterFunc(i, "network", "ni_send_wait_cycles", func() uint64 { return uint64(send.WaitTotal) })
		r.CounterFunc(i, "network", "ni_recv_grants", func() uint64 { return recv.Grants })
		r.CounterFunc(i, "network", "ni_recv_busy_cycles", func() uint64 { return uint64(recv.BusyTotal) })
		r.CounterFunc(i, "network", "ni_recv_wait_cycles", func() uint64 { return uint64(recv.WaitTotal) })
	}
	if n.tr != nil {
		// Fault/recovery instruments exist only on lossy runs so that
		// fault-free metrics exports stay byte-identical.
		n.tr.registerMetrics(r)
	}
}
