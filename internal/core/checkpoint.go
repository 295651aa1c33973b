package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"prism/internal/cache"
	"prism/internal/coherence"
	"prism/internal/directory"
	"prism/internal/fault"
	"prism/internal/ipc"
	"prism/internal/kernel"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/network"
	"prism/internal/node"
	"prism/internal/pit"
	"prism/internal/sim"
	"prism/internal/snapshot"
)

// Full-machine checkpoint and restore.
//
// Processor workloads run on host goroutines, so their stacks cannot be
// serialized. Checkpoints are therefore taken only at one kind of safe
// point: the instant the last processor arrives at a software barrier
// (the "fill"). At that instant every other processor is parked in the
// barrier's wait queue with its wake-up event already in the heap at a
// known (time, sequence) pair, the trigger's continuation is a known
// source location (the code after the fill), and — if the machine is
// also protocol-quiescent (no in-flight coherence, paging, migration or
// network work) — the entire remaining machine state is plain data.
//
// Restore rebuilds the goroutine stacks by replay: the same workload
// runs on a fresh machine in replay mode, where memory references and
// compute are no-ops and every synchronization operation consults a
// recorded gate log. The log is the run's synchronization order
// ('B' barrier arrival, 'L'/'H' lock acquisition, 'U' release); a
// log-driven scheduler steps each processor exactly when the log says
// it acted, which re-parks every coroutine at the same source location
// it occupied at capture, in zero simulated time. The captured state is
// then imported wholesale over the replayed skeleton, and Resume
// continues the trigger synchronously — exactly mirroring the original
// run, where the fill continued inside a dispatching event — so the
// resumed run's event (time, sequence) evolution is identical to the
// uninterrupted run's. Replay correctness assumes the workload is
// data-race-free: its control flow must depend only on synchronization
// order, not on racing memory contents (see DESIGN.md).

// CheckpointVersion identifies the checkpoint payload schema. Bump it
// on any structural change to MachineSnapshot or a component state.
const CheckpointVersion = 2

// CheckpointKind is the envelope kind tag for machine checkpoints.
const CheckpointKind = "checkpoint"

// GateRec is one entry of the synchronization gate log. Kind is 'B'
// (barrier arrival), 'L' (software lock acquisition), 'H' (hardware
// lock grant) or 'U' (unlock).
type GateRec struct {
	Proc int
	Kind byte
	ID   uint64
}

// Proc sentinels for non-processor events.
const (
	evSampler  = -1 // the metrics sampler's next tick
	evInflight = -2 // an in-flight message delivery (Inflight set)
	evPending  = -3 // a live retransmission timer (Pending set)
)

// InflightRec is one in-flight message delivery event: the wire
// payload plus transport framing (sequenced envelope or ack) when a
// fault plan is armed. Payload is nil only for transport acks.
type InflightRec struct {
	Src, Dst mem.NodeID
	Occ      sim.Time
	Arrived  bool
	Env      bool    `json:",omitempty"`
	EnvSeq   uint64  `json:",omitempty"`
	EnvClass int     `json:",omitempty"`
	Ack      bool    `json:",omitempty"`
	AckSeq   uint64  `json:",omitempty"`
	Payload  *MsgRec `json:",omitempty"`
}

// PendingRec is one live (unacked) sender-side retransmission record;
// its timer event re-arms at the recorded (At, Seq).
type PendingRec struct {
	Src, Dst  mem.NodeID
	Seq       uint64
	Class     int
	Size      int
	Attempts  int
	RTO       sim.Time
	FirstSend sim.Time
	Payload   *MsgRec
}

// EventRec is one serializable pending engine event: a coroutine step
// for processor Proc (>= 0), or one of the evSampler / evInflight /
// evPending sentinels.
type EventRec struct {
	At       sim.Time
	Seq      uint64
	Proc     int
	Inflight *InflightRec `json:",omitempty"`
	Pending  *PendingRec  `json:",omitempty"`
}

// ProcSnap is one processor plus its private cache hierarchy.
type ProcSnap struct {
	Proc node.ProcState
	L1   cache.CacheState
	L2   cache.CacheState
}

// NodeSnap is one node's kernel, controller and memory-system state.
type NodeSnap struct {
	Node node.NodeState
	Kern kernel.KernelState
	Ctrl coherence.ControllerState
	PIT  pit.PITState
	Dir  directory.DirectoryState
}

// MachineSnapshot is a complete machine checkpoint: everything needed
// to continue the run bit-identically on a freshly built machine with
// the same configuration and workload.
type MachineSnapshot struct {
	// Shape validation against the restoring machine.
	NumNodes int
	NumProcs int

	// Engine clock, sequence counter and pending events at capture.
	Now    sim.Time
	Seq    uint64
	Events []EventRec

	// The synchronization order from run start to the capture point,
	// and the processor/barrier that triggered the fill.
	GateLog        []GateRec
	Trigger        int
	TriggerBarrier int

	// Machine-level measurement state.
	Measuring  bool
	PhaseStart sim.Time
	PhaseEnd   sim.Time
	NextGlobal mem.VSID

	// Interval sampler configuration and accumulated samples (Every is
	// zero when no sampler was attached).
	SamplerEvery sim.Time
	Samples      []metrics.Sample

	Procs []ProcSnap
	Nodes []NodeSnap
	Net   network.NetworkState
	Sync  node.SyncState
	IPC   ipc.RegistryState
	Hist  metrics.RegistryState
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

// recorder is the SyncHook installed while recording: it accumulates
// the gate log and captures a snapshot at the first quiescent barrier
// fill at or after the target time.
type recorder struct {
	m       *Machine
	target  sim.Time
	idx     map[*node.Proc]int
	log     []GateRec
	snap    *MachineSnapshot
	lastErr error // why the most recent eligible fill was not quiescent
	fills   int   // eligible fills examined
}

// Gate implements node.SyncHook.
func (r *recorder) Gate(p *node.Proc, kind byte, id uint64) {
	if r.snap == nil {
		r.log = append(r.log, GateRec{Proc: r.idx[p], Kind: kind, ID: id})
	}
}

// BarrierFill implements node.SyncHook: try to capture. A non-quiescent
// fill (in-flight protocol or network work, or a pending closure event
// such as the migration daemon's) is skipped; the next fill retries.
func (r *recorder) BarrierFill(p *node.Proc, id int) {
	if r.snap != nil || r.m.E.Now() < r.target {
		return
	}
	r.fills++
	snap, err := r.m.captureSnapshot(r.idx[p], id, r.log)
	if err != nil {
		r.lastErr = err
		return
	}
	r.snap = snap
}

// ErrNoQuiescentFill reports that a recorded run completed without a
// capturable safe point: no barrier fill at or after the target time
// found the machine quiescent.
var ErrNoQuiescentFill = errors.New("no quiescent barrier fill at or after target time")

// RecordCheckpoint runs the workload to completion with checkpoint
// recording armed: at the first barrier fill at or after simulated time
// `at` where the machine is quiescent, the complete machine state is
// captured. The recording hook does not perturb the run, so the
// returned Results always match an uninterrupted run. If no eligible
// fill was quiescent the snapshot is nil and the error wraps
// ErrNoQuiescentFill (with the last rejection reason) — but the
// Results are still valid; callers that merely prefer a checkpoint may
// errors.Is-check and carry on.
func (m *Machine) RecordCheckpoint(w Workload, at sim.Time) (*MachineSnapshot, Results, error) {
	rec := &recorder{m: m, target: at, idx: make(map[*node.Proc]int, len(m.Procs))}
	for i, p := range m.Procs {
		rec.idx[p] = i
	}
	m.Sync.SetHook(rec)
	res, err := m.Run(w)
	m.Sync.SetHook(nil)
	if err != nil {
		return nil, Results{}, err
	}
	if rec.snap == nil {
		if rec.lastErr != nil {
			return nil, res, fmt.Errorf("%w (target t=%d, %d fills examined, last rejection: %v)",
				ErrNoQuiescentFill, at, rec.fills, rec.lastErr)
		}
		return nil, res, fmt.Errorf("%w (target t=%d, no barrier fills after target)", ErrNoQuiescentFill, at)
	}
	return rec.snap, res, nil
}

// captureSnapshot captures the machine at a barrier fill. trigger is
// the index of the processor that filled barrier barrierID; log is the
// gate log up to and including the trigger's arrival. It returns an
// error if the machine is not quiescent.
func (m *Machine) captureSnapshot(trigger, barrierID int, log []GateRec) (*MachineSnapshot, error) {
	// Component quiescence: no in-flight protocol, paging, migration or
	// transport work anywhere.
	for _, n := range m.Nodes {
		if !n.Kern.Quiesced() {
			return nil, fmt.Errorf("core: node %d kernel not quiescent", n.ID)
		}
		if b := n.Ctrl.QuiesceBlocker(); b != "" {
			return nil, fmt.Errorf("core: node %d controller not quiescent: %s", n.ID, b)
		}
		if c := n.Ctrl.PIT.InTransitCount(); c != 0 {
			return nil, fmt.Errorf("core: node %d has %d frames in transit", n.ID, c)
		}
	}
	if err := m.Net.CheckCapturable(); err != nil {
		return nil, err
	}
	if !m.Sync.QueuesEmpty() {
		return nil, fmt.Errorf("core: sync queues not empty at fill")
	}

	// Heap scan: every pending event must be a parked processor's
	// wake-up step (exactly one per non-trigger processor), the metrics
	// sampler's next tick, an in-flight message delivery, or a live
	// retransmission timer. Already-acked timers are skipped (their
	// firing only recycles a pooled record); anything else — a closure
	// event such as the migration daemon's tick — blocks capture.
	byCoro := make(map[*sim.Coro]int, len(m.Procs))
	for i, p := range m.Procs {
		byCoro[p.Coro()] = i
	}
	var events []EventRec
	seen := make(map[int]bool, len(m.Procs))
	var scanErr error
	m.E.ForEachEvent(func(at sim.Time, seq uint64, coro *sim.Coro, h sim.EventHandler, opaque bool) {
		if scanErr != nil {
			return
		}
		switch {
		case coro != nil:
			i, isProc := byCoro[coro]
			if !isProc {
				scanErr = fmt.Errorf("core: pending step for unknown coroutine %q", coro.Label)
				return
			}
			if seen[i] || i == trigger {
				scanErr = fmt.Errorf("core: unexpected extra step event for processor %d", i)
				return
			}
			seen[i] = true
			events = append(events, EventRec{At: at, Seq: seq, Proc: i})
		case h != nil:
			if s, isSampler := h.(*metrics.Sampler); isSampler && s == m.sampler {
				events = append(events, EventRec{At: at, Seq: seq, Proc: evSampler})
				return
			}
			class, fin, pin := m.Net.InspectEvent(h)
			switch class {
			case network.EvAckedTimer:
				return // behaviourally inert; dropped from the snapshot
			case network.EvInflight:
				rec := &InflightRec{
					Src: fin.Src, Dst: fin.Dst, Occ: fin.Occ, Arrived: fin.Arrived,
					Env: fin.Env, EnvSeq: fin.EnvSeq, EnvClass: int(fin.EnvClass),
					Ack: fin.Ack, AckSeq: fin.AckSeq,
				}
				if fin.Msg != nil {
					payload, err := encodeMsg(fin.Msg)
					if err != nil {
						scanErr = err
						return
					}
					rec.Payload = payload
				}
				events = append(events, EventRec{At: at, Seq: seq, Proc: evInflight, Inflight: rec})
			case network.EvLiveTimer:
				payload, err := encodeMsg(pin.Msg)
				if err != nil {
					scanErr = err
					return
				}
				events = append(events, EventRec{At: at, Seq: seq, Proc: evPending, Pending: &PendingRec{
					Src: pin.Src, Dst: pin.Dst, Seq: pin.Seq, Class: int(pin.Class), Size: pin.Size,
					Attempts: pin.Attempts, RTO: pin.RTO, FirstSend: pin.FirstSend, Payload: payload,
				}})
			default:
				scanErr = fmt.Errorf("core: pending non-serializable handler event at t=%d", at)
			}
		default:
			scanErr = fmt.Errorf("core: pending closure event at t=%d (migration daemon or custom schedule)", at)
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if len(seen) != len(m.Procs)-1 {
		return nil, fmt.Errorf("core: %d parked processors at fill, want %d", len(seen), len(m.Procs)-1)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})

	now, seq := m.E.SnapshotClock()
	snap := &MachineSnapshot{
		NumNodes:       len(m.Nodes),
		NumProcs:       len(m.Procs),
		Now:            now,
		Seq:            seq,
		Events:         events,
		GateLog:        append([]GateRec(nil), log...),
		Trigger:        trigger,
		TriggerBarrier: barrierID,
		Measuring:      m.measuring,
		PhaseStart:     m.phaseStart,
		PhaseEnd:       m.phaseEnd,
		NextGlobal:     m.nextGlobal,
		SamplerEvery:   m.samplerEvery,
		Net:            m.Net.ExportState(),
		Sync:           m.Sync.ExportState(),
		IPC:            m.Reg.ExportState(),
		Hist:           m.Metrics.ExportState(),
	}
	if m.sampler != nil {
		snap.Samples = append([]metrics.Sample(nil), m.sampler.Samples...)
	}
	for _, p := range m.Procs {
		snap.Procs = append(snap.Procs, ProcSnap{
			Proc: p.ExportState(),
			L1:   p.L1().ExportState(),
			L2:   p.L2().ExportState(),
		})
	}
	for _, n := range m.Nodes {
		snap.Nodes = append(snap.Nodes, NodeSnap{
			Node: n.ExportState(),
			Kern: n.Kern.ExportState(),
			Ctrl: n.Ctrl.ExportState(),
			PIT:  n.Ctrl.PIT.ExportState(),
			Dir:  n.Ctrl.Dir.ExportState(),
		})
	}
	return snap, nil
}

// ---------------------------------------------------------------------------
// Replay and restore
// ---------------------------------------------------------------------------

// replayHook is the SyncHook installed while replaying: Gate blocks
// each processor until the log head is its recorded action, and
// BarrierFill parks the trigger once the log is exhausted.
type replayHook struct {
	log    []GateRec
	cursor int
	idx    map[*node.Proc]int

	parked     bool
	parkedProc int
	parkedID   int
	err        error
}

// Gate implements node.SyncHook.
func (h *replayHook) Gate(p *node.Proc, kind byte, id uint64) {
	i := h.idx[p]
	for {
		if h.err != nil {
			p.Coro().Block() // wedge; the driver has already failed
			continue
		}
		if h.cursor >= len(h.log) {
			// Post-capture synchronization: unreachable in a faithful
			// replay (the trigger parks at the fill first). Wedge and
			// let the driver report the divergence.
			h.err = fmt.Errorf("core: replay ran past the gate log at proc %d %c(%d)", i, kind, id)
			p.Coro().Block()
			continue
		}
		rec := h.log[h.cursor]
		if rec.Proc == i {
			if rec.Kind != kind || rec.ID != id {
				h.err = fmt.Errorf("core: replay diverged at log[%d]: recorded proc %d %c(%d), got %c(%d)",
					h.cursor, rec.Proc, rec.Kind, rec.ID, kind, id)
				p.Coro().Block()
				continue
			}
			h.cursor++
			return
		}
		p.Coro().Block()
	}
}

// BarrierFill implements node.SyncHook: once the log is exhausted the
// filling processor is the capture trigger; park it. (Mid-log fills are
// ordinary barriers the recorded run also passed through.)
func (h *replayHook) BarrierFill(p *node.Proc, id int) {
	if h.cursor >= len(h.log) && h.err == nil {
		h.parked = true
		h.parkedProc = h.idx[p]
		h.parkedID = id
		p.Coro().Block()
	}
}

// RestoreSnapshot rebuilds the captured machine state on this machine,
// which must be freshly built from the same configuration that
// produced the snapshot. The workload's control flow is replayed in
// zero simulated time to re-park every processor coroutine, then the
// snapshot state is imported wholesale. Follow with Resume to continue
// the run.
func (m *Machine) RestoreSnapshot(w Workload, snap *MachineSnapshot) error {
	// A restore that fails or panics leaves no coroutine parked; one
	// that succeeds leaves them parked for Resume.
	defer func() {
		if !m.ckptRestored {
			m.stopProcs()
		}
	}()
	if len(m.Nodes) != snap.NumNodes || len(m.Procs) != snap.NumProcs {
		return fmt.Errorf("core: snapshot is for %d nodes / %d procs, machine has %d / %d",
			snap.NumNodes, snap.NumProcs, len(m.Nodes), len(m.Procs))
	}
	if m.E.Now() != 0 || m.E.Pending() != 0 {
		return fmt.Errorf("core: RestoreSnapshot on a machine that has already run")
	}
	if snap.Trigger < 0 || snap.Trigger >= len(m.Procs) {
		return fmt.Errorf("core: snapshot trigger %d out of range", snap.Trigger)
	}
	if err := w.Setup(m); err != nil {
		return fmt.Errorf("core: %s setup: %w", w.Name(), err)
	}

	// Replay: re-traverse the workload's control flow under the gate
	// log. Memory and compute are no-ops; the only blocking points are
	// gates and barrier queues, so the driver can single-step the
	// processor that owns the next log entry.
	hook := &replayHook{log: snap.GateLog, idx: make(map[*node.Proc]int, len(m.Procs))}
	for i, p := range m.Procs {
		hook.idx[p] = i
	}
	m.Sync.SetHook(hook)
	defer m.Sync.SetHook(nil)
	for _, p := range m.Procs {
		p.SetReplay(true)
	}
	for i, p := range m.Procs {
		ctx := &Ctx{P: p, ID: i, N: len(m.Procs), m: m}
		p.Coro().Start(func() { w.Run(ctx) })
	}
	for _, p := range m.Procs {
		if !p.Coro().Done() {
			p.Coro().Step()
		}
		if hook.err != nil {
			return hook.err
		}
	}
	for hook.cursor < len(hook.log) {
		rec := hook.log[hook.cursor]
		p := m.Procs[rec.Proc]
		if p.Coro().Done() {
			return fmt.Errorf("core: replay diverged: log[%d] expects proc %d, which already finished", hook.cursor, rec.Proc)
		}
		before := hook.cursor
		p.Coro().Step()
		if hook.err != nil {
			return hook.err
		}
		if hook.cursor == before {
			return fmt.Errorf("core: replay stuck: stepping proc %d did not consume log[%d]", rec.Proc, before)
		}
	}
	if !hook.parked {
		return fmt.Errorf("core: replay finished the log without reaching the checkpoint barrier")
	}
	if hook.parkedProc != snap.Trigger || hook.parkedID != snap.TriggerBarrier {
		return fmt.Errorf("core: replay parked proc %d at barrier %d, snapshot says proc %d at barrier %d",
			hook.parkedProc, hook.parkedID, snap.Trigger, snap.TriggerBarrier)
	}

	// Import: clear the replay-time garbage events (barrier wake-ups
	// pushed at t=0) and rebuild the heap from the snapshot, then
	// overwrite every component's state. The sampler is re-attached
	// first so its pending tick can be re-pointed at it (its initial
	// self-scheduled event lands in the garbage heap and is cleared);
	// the network is imported before the heap is rebuilt because
	// restored retransmission timers reinstall themselves in the
	// transport's pending table, which ImportState re-makes.
	if snap.SamplerEvery > 0 {
		m.SampleMetrics(snap.SamplerEvery)
	}
	m.E.RestoreClock(snap.Now, snap.Seq)
	m.Net.ImportState(snap.Net)
	for _, er := range snap.Events {
		switch {
		case er.Proc >= 0:
			m.E.RestoreEvent(er.At, er.Seq, m.Procs[er.Proc].Coro(), nil)
		case er.Proc == evSampler:
			if m.sampler == nil {
				return fmt.Errorf("core: snapshot has a sampler event but no sampler interval")
			}
			m.E.RestoreEvent(er.At, er.Seq, nil, m.sampler)
		case er.Proc == evInflight && er.Inflight != nil:
			fr := er.Inflight
			info := &network.InflightInfo{
				Src: fr.Src, Dst: fr.Dst, Occ: fr.Occ, Arrived: fr.Arrived,
				Env: fr.Env, EnvSeq: fr.EnvSeq, EnvClass: fault.Class(fr.EnvClass),
				Ack: fr.Ack, AckSeq: fr.AckSeq,
			}
			if fr.Payload != nil {
				msg, err := decodeMsg(fr.Payload)
				if err != nil {
					return err
				}
				info.Msg = msg
			} else if !fr.Ack {
				return fmt.Errorf("core: snapshot in-flight message at t=%d has no payload", er.At)
			}
			h, err := m.Net.BuildInflight(info)
			if err != nil {
				return err
			}
			m.E.RestoreEvent(er.At, er.Seq, nil, h)
		case er.Proc == evPending && er.Pending != nil:
			pr := er.Pending
			msg, err := decodeMsg(pr.Payload)
			if err != nil {
				return err
			}
			h, err := m.Net.BuildPending(&network.PendingInfo{
				Src: pr.Src, Dst: pr.Dst, Seq: pr.Seq, Class: fault.Class(pr.Class), Size: pr.Size,
				Attempts: pr.Attempts, RTO: pr.RTO, FirstSend: pr.FirstSend, Msg: msg,
			})
			if err != nil {
				return err
			}
			m.E.RestoreEvent(er.At, er.Seq, nil, h)
		default:
			return fmt.Errorf("core: snapshot event with unknown kind %d at t=%d", er.Proc, er.At)
		}
	}
	if m.sampler != nil {
		m.sampler.Samples = append([]metrics.Sample(nil), snap.Samples...)
	}

	for i, p := range m.Procs {
		ps := snap.Procs[i]
		if err := p.ImportState(ps.Proc); err != nil {
			return err
		}
		if err := p.L1().ImportState(ps.L1); err != nil {
			return err
		}
		if err := p.L2().ImportState(ps.L2); err != nil {
			return err
		}
	}
	for i, n := range m.Nodes {
		ns := snap.Nodes[i]
		n.ImportState(ns.Node)
		n.Kern.ImportState(ns.Kern)
		n.Ctrl.ImportState(ns.Ctrl)
		n.Ctrl.PIT.ImportState(ns.PIT)
		if err := n.Ctrl.Dir.ImportState(ns.Dir); err != nil {
			return err
		}
	}
	m.Sync.ImportState(snap.Sync)
	m.Reg.ImportState(snap.IPC)
	if err := m.Metrics.ImportState(snap.Hist); err != nil {
		return err
	}
	m.measuring = snap.Measuring
	m.phaseStart = snap.PhaseStart
	m.phaseEnd = snap.PhaseEnd
	m.nextGlobal = snap.NextGlobal

	for _, p := range m.Procs {
		p.SetReplay(false)
	}
	m.ckptTrigger = snap.Trigger
	m.ckptRestored = true
	return nil
}

// Resume continues a restored machine to completion and returns the
// final results. The trigger processor is stepped synchronously first —
// mirroring the original run, where the code after the barrier fill
// continued inside the dispatching event — and then the engine drains
// normally.
func (m *Machine) Resume(w Workload) (Results, error) {
	if !m.ckptRestored {
		return Results{}, fmt.Errorf("core: Resume without RestoreSnapshot")
	}
	m.ckptRestored = false
	defer m.stopProcs()
	trig := m.Procs[m.ckptTrigger]
	if !trig.Coro().Done() {
		trig.Coro().Step()
	}
	m.E.RunUntilIdle()
	return m.finish(w)
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

// WriteSnapshot serializes a snapshot in the versioned envelope format
// (see internal/snapshot): canonical JSON payload, content hash, and a
// structural fingerprint that detects schema drift without a version
// bump.
func WriteSnapshot(wr io.Writer, snap *MachineSnapshot) error {
	return snapshot.Encode(wr, CheckpointKind, CheckpointVersion, snap)
}

// ReadSnapshot deserializes a snapshot, verifying magic, kind, version,
// hash and schema fingerprint.
func ReadSnapshot(r io.Reader) (*MachineSnapshot, error) {
	var snap MachineSnapshot
	if err := snapshot.Decode(r, CheckpointKind, CheckpointVersion, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
