package network

import (
	"fmt"

	"prism/internal/fault"
	"prism/internal/mem"
	"prism/internal/pool"
	"prism/internal/sim"
)

// Serializable network state. In-flight messages are event objects in
// the engine heap and cannot be captured; the capture layer's heap scan
// (see EventClass) refuses to checkpoint while any are outstanding.
// Sender-side pending records whose ack already arrived are the one
// exception: their residual timer firing only returns the record to a
// pool, which is behaviourally invisible, so such timers are classified
// as skippable and simply not restored.

// LinkSnap is one directional link's sequence state. Links with no
// traffic (both counters zero, nothing held) are omitted.
type LinkSnap struct {
	Index    int // src*nodes + dst
	SendNext uint64
	RecvNext uint64
}

// TransportSnap is the recovery transport's serializable state; nil in
// a NetworkState when no fault plan is armed.
type TransportSnap struct {
	Links    []LinkSnap
	Stats    TransportStats
	Injector fault.InjectorState
}

// NetworkState is the interconnect's complete serializable state.
type NetworkState struct {
	SendNI    []sim.ResourceState
	RecvNI    []sim.ResourceState
	Stats     Stats
	Transport *TransportSnap
}

// EventClass classifies an engine event handler owned by this network
// for the capture layer's heap scan.
type EventClass int

const (
	// EvForeign: not a network-owned event.
	EvForeign EventClass = iota
	// EvInflight: an undelivered message — serialized via InflightInfo.
	EvInflight
	// EvLiveTimer: an unacked retransmission timer — serialized via
	// PendingInfo.
	EvLiveTimer
	// EvAckedTimer: a cancelled (acked) retransmission timer whose only
	// residual effect is recycling a pooled record — skippable.
	EvAckedTimer
)

// InflightInfo describes one in-flight delivery event in terms the
// capture layer can serialize. Msg is the unwrapped protocol payload
// (nil for a transport ack); the caller encodes it with its payload
// codec. Env marks a transport envelope (EnvSeq/EnvClass meaningful);
// Ack marks a transport acknowledgement (AckSeq meaningful).
type InflightInfo struct {
	Src, Dst mem.NodeID
	Occ      sim.Time
	Arrived  bool
	Env      bool
	EnvSeq   uint64
	EnvClass fault.Class
	Ack      bool
	AckSeq   uint64
	Msg      Message
}

// PendingInfo describes one live (unacked) sender-side retransmission
// record. Class is kept explicitly rather than recomputed from Msg: a
// record whose payload was already delivered may hold a recycled
// pointer (see the pointer-hygiene note in transport.go), and the
// retransmit accounting must keep charging the original class.
type PendingInfo struct {
	Src, Dst  mem.NodeID
	Seq       uint64
	Class     fault.Class
	Size      int
	Attempts  int
	RTO       sim.Time
	FirstSend sim.Time
	Msg       Message
}

// InspectEvent decomposes a network-owned engine event for capture:
// (EvInflight, info, nil), (EvLiveTimer, nil, info), (EvAckedTimer,
// nil, nil) or (EvForeign, nil, nil).
func (n *Network) InspectEvent(h sim.EventHandler) (EventClass, *InflightInfo, *PendingInfo) {
	switch ev := h.(type) {
	case *inflight:
		if ev.n != n {
			return EvForeign, nil, nil
		}
		info := &InflightInfo{Src: ev.src, Dst: ev.dst, Occ: ev.occ, Arrived: ev.arrived}
		switch m := ev.msg.(type) {
		case *envelope:
			info.Env, info.EnvSeq, info.EnvClass, info.Msg = true, m.seq, m.class, m.msg
		case *wireAck:
			info.Ack, info.AckSeq = true, m.seq
		default:
			info.Msg = ev.msg
		}
		return EvInflight, info, nil
	case *pendingMsg:
		if n.tr == nil || ev.tr != n.tr {
			return EvForeign, nil, nil
		}
		if ev.acked {
			return EvAckedTimer, nil, nil
		}
		return EvLiveTimer, nil, &PendingInfo{
			Src: ev.src, Dst: ev.dst, Seq: ev.seq, Class: ev.class, Size: ev.size,
			Attempts: ev.attempts, RTO: ev.rto, FirstSend: ev.firstSend, Msg: ev.msg,
		}
	}
	return EvForeign, nil, nil
}

// BuildInflight reconstructs a delivery event from captured info; the
// caller re-inserts it into the engine heap at its recorded (at, seq).
// Call after ImportState (envelopes require the transport).
func (n *Network) BuildInflight(info *InflightInfo) (sim.EventHandler, error) {
	ev := &inflight{n: n, src: info.Src, dst: info.Dst, occ: info.Occ, arrived: info.Arrived}
	switch {
	case info.Env:
		if n.tr == nil {
			return nil, fmt.Errorf("network: snapshot holds a transport envelope but no fault plan is armed")
		}
		ev.msg = &envelope{seq: info.EnvSeq, class: info.EnvClass, msg: info.Msg}
	case info.Ack:
		if n.tr == nil {
			return nil, fmt.Errorf("network: snapshot holds a transport ack but no fault plan is armed")
		}
		ev.msg = &wireAck{seq: info.AckSeq}
	default:
		ev.msg = info.Msg
	}
	return ev, nil
}

// BuildPending reconstructs a live retransmission record from captured
// info, reinstalling it in the transport's pending table, and returns
// it as the timer event the caller re-inserts at its recorded (at,
// seq). Call after ImportState (which re-makes the pending table).
func (n *Network) BuildPending(info *PendingInfo) (sim.EventHandler, error) {
	if n.tr == nil {
		return nil, fmt.Errorf("network: snapshot holds a retransmission timer but no fault plan is armed")
	}
	p := &pendingMsg{
		tr: n.tr, src: info.Src, dst: info.Dst, seq: info.Seq, class: info.Class,
		msg: info.Msg, size: info.Size, attempts: info.Attempts, rto: info.RTO,
		firstSend: info.FirstSend,
	}
	n.tr.pending[pendKey{src: info.Src, dst: info.Dst, seq: info.Seq}] = p
	return p, nil
}

// CheckCapturable reports whether the network's non-event state can be
// captured. Unlike CheckQuiesced (the end-of-run check), in-flight
// messages and unacked transmissions are fine — they are serialized as
// events — but out-of-order envelopes buffered at a receiver are not
// (they hold payloads outside the event heap); a capture attempt while
// a link has held arrivals must be retried later.
func (n *Network) CheckCapturable() error {
	tr := n.tr
	if tr == nil {
		return nil
	}
	for i := range tr.links {
		if len(tr.links[i].held) != 0 {
			return fmt.Errorf("network: link %d->%d buffers %d out-of-order arrivals",
				i/tr.nodes, i%tr.nodes, len(tr.links[i].held))
		}
	}
	return nil
}

// ExportState captures the network. The caller must have established
// quiescence (CheckQuiesced plus the heap scan); held buffers are empty
// by construction there, so only sequence numbers are captured.
func (n *Network) ExportState() NetworkState {
	s := NetworkState{Stats: n.Stats}
	for i := range n.sendNI {
		s.SendNI = append(s.SendNI, n.sendNI[i].ExportState())
		s.RecvNI = append(s.RecvNI, n.recvNI[i].ExportState())
	}
	if n.tr != nil {
		ts := &TransportSnap{Stats: n.tr.stats, Injector: n.tr.inj.ExportState()}
		for i := range n.tr.links {
			l := &n.tr.links[i]
			if l.sendNext == 0 && l.recvNext == 0 {
				continue
			}
			ts.Links = append(ts.Links, LinkSnap{Index: i, SendNext: l.sendNext, RecvNext: l.recvNext})
		}
		s.Transport = ts
	}
	return s
}

// ImportState restores the network over a freshly built machine (with
// the same node count and, when s.Transport is set, the same fault
// plan armed).
func (n *Network) ImportState(s NetworkState) {
	for i := range n.sendNI {
		n.sendNI[i].ImportState(s.SendNI[i])
		n.recvNI[i].ImportState(s.RecvNI[i])
	}
	n.Stats = s.Stats
	if s.Transport != nil && n.tr != nil {
		n.tr.stats = s.Transport.Stats
		n.tr.inj.ImportState(s.Transport.Injector)
		for i := range n.tr.links {
			n.tr.links[i] = linkState{}
		}
		for _, l := range s.Transport.Links {
			n.tr.links[l.Index] = linkState{sendNext: l.SendNext, recvNext: l.RecvNext}
		}
		n.tr.pending = make(map[pendKey]*pendingMsg)
	}
	n.free = pool.Free[inflight]{}
}
