package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"prism/internal/mem"
	"prism/internal/node"
	"prism/internal/sim"
)

// ckptWorkload is a small deterministic workload with enough
// synchronization structure to exercise checkpointing: per-iteration
// shared reads, striped writes, a lock-protected critical section, and
// a barrier that provides the capture safe points.
type ckptWorkload struct {
	iters int
	words int
	buf   mem.VAddr
	// leak makes the last iteration take lock 2 and never release it,
	// so every processor but its holder blocks: a deadlock.
	leak bool
}

func (w *ckptWorkload) Name() string { return "ckpt-smoke" }

func (w *ckptWorkload) Setup(m *Machine) error {
	var err error
	w.buf, err = m.Alloc("ckpt.buf", uint64(w.words*8))
	return err
}

func (w *ckptWorkload) Run(ctx *Ctx) {
	p := ctx.P
	ctx.BeginParallel()
	stride := w.words / ctx.N
	for it := 0; it < w.iters; it++ {
		for j := 0; j < w.words; j += 7 {
			p.Read(w.buf + mem.VAddr(j*8))
		}
		for j := ctx.ID * stride; j < (ctx.ID+1)*stride; j++ {
			p.Write(w.buf + mem.VAddr(j*8))
		}
		p.Lock(1)
		p.Compute(20)
		p.Unlock(1)
		if w.leak && it == w.iters-1 {
			p.Lock(2)
		}
		p.Barrier(1)
	}
	ctx.EndParallel()
}

func ckptConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Node.Procs = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func newCkptMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestResumeDeadlockReportsLikeRun: a run that deadlocks after a
// restore fails the way an uninterrupted run that deadlocks does.
func TestResumeDeadlockReportsLikeRun(t *testing.T) {
	_, runErr := newCkptMachine(t).Run(&ckptWorkload{iters: 6, words: 512, leak: true})
	snap, _, err := newCkptMachine(t).RecordCheckpoint(&ckptWorkload{iters: 6, words: 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newCkptMachine(t)
	if err := m.RestoreSnapshot(&ckptWorkload{iters: 6, words: 512, leak: true}, snap); err != nil {
		t.Fatal(err)
	}
	_, resumeErr := m.Resume(&ckptWorkload{iters: 6, words: 512, leak: true})
	if runErr == nil || resumeErr == nil || runErr.Error() != resumeErr.Error() {
		t.Errorf("deadlock reports differ:\nrun:    %v\nresume: %v", runErr, resumeErr)
	}
}

// TestCheckpointResumeMatchesUninterrupted is the core record → restore
// → resume smoke test: the resumed run's results must be identical to
// the uninterrupted run's, and the snapshot must survive a serialize /
// deserialize round trip byte-for-byte.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	mk := func() *ckptWorkload { return &ckptWorkload{iters: 6, words: 512} }

	// Uninterrupted reference run.
	m1 := newCkptMachine(t)
	ref, err := m1.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	refMetrics := m1.Metrics.Snapshot()

	// Recorded run: the hook must not perturb results.
	m2 := newCkptMachine(t)
	snap, recRes, err := m2.RecordCheckpoint(mk(), ref.Cycles/3)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no quiescent barrier fill found after target time")
	}
	if !reflect.DeepEqual(recRes, ref) {
		t.Fatalf("recording perturbed the run:\nref: %+v\nrec: %+v", ref, recRes)
	}
	t.Logf("checkpoint at t=%d (trigger proc %d, barrier %d, %d gate records, %d events)",
		snap.Now, snap.Trigger, snap.TriggerBarrier, len(snap.GateLog), len(snap.Events))

	// Serialization round trip.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	snap2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot serialization is not a byte-identical round trip")
	}

	// Restore on a fresh machine and resume to completion.
	m3 := newCkptMachine(t)
	if err := m3.RestoreSnapshot(mk(), snap2); err != nil {
		t.Fatal(err)
	}
	res, err := m3.Resume(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after resume: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("resumed results differ from uninterrupted run:\nref: %+v\ngot: %+v", ref, res)
	}
	if got := m3.Metrics.Snapshot(); !reflect.DeepEqual(got, refMetrics) {
		t.Fatalf("resumed metrics differ from uninterrupted run")
	}
}

// TestRestoreStateMatchesCapture restores a snapshot and immediately
// re-exports the machine state: it must be identical to the capture.
func TestRestoreStateMatchesCapture(t *testing.T) {
	mk := func() *ckptWorkload { return &ckptWorkload{iters: 6, words: 512} }

	m1 := newCkptMachine(t)
	snap, _, err := m1.RecordCheckpoint(mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}

	m2 := newCkptMachine(t)
	if err := m2.RestoreSnapshot(mk(), snap); err != nil {
		t.Fatal(err)
	}
	re, err := m2.captureSnapshot(snap.Trigger, snap.TriggerBarrier, snap.GateLog)
	if err != nil {
		t.Fatalf("restored machine not quiescent: %v", err)
	}
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-exported state after restore differs from the captured snapshot")
	}
	// The machine is still restorable after the probe: resume must work.
	if _, err := m2.Resume(mk()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsBadTLBState feeds hand-built malformed TLB
// snapshots through RestoreSnapshot: each must fail with a one-line
// error naming the processor, never a panic.
func TestRestoreRejectsBadTLBState(t *testing.T) {
	mk := func() *ckptWorkload { return &ckptWorkload{iters: 6, words: 512} }
	snap, _, err := newCkptMachine(t).RecordCheckpoint(mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	var enc bytes.Buffer
	if err := WriteSnapshot(&enc, snap); err != nil {
		t.Fatal(err)
	}

	entry := func(page uint32, lru uint64) node.TLBEntryState {
		return node.TLBEntryState{Seg: 1, Page: page, Frame: mem.FrameID(page), LRU: lru}
	}
	overfull := node.TLBState{Clock: 1000}
	for i := 0; i <= ckptConfig(t).Node.TLBEntries; i++ {
		overfull.Entries = append(overfull.Entries, entry(uint32(i), uint64(i+1)))
	}
	cases := map[string]node.TLBState{
		"over capacity":   overfull,
		"duplicate page":  {Clock: 10, Entries: []node.TLBEntryState{entry(3, 1), entry(3, 2)}},
		"duplicate stamp": {Clock: 10, Entries: []node.TLBEntryState{entry(3, 5), entry(4, 5)}},
	}
	const proc = 2
	for name, bad := range cases {
		s, err := ReadSnapshot(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		s.Procs[proc].Proc.TLB = bad
		err = newCkptMachine(t).RestoreSnapshot(mk(), s)
		if err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "proc 2:") || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q does not name proc %d on one line", name, msg, proc)
		}
	}
}

var _ = sim.Time(0)
