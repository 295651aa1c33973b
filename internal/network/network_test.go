package network

import (
	"strings"
	"testing"

	"prism/internal/mem"
	"prism/internal/sim"
)

type sink struct {
	got []delivery
	e   *sim.Engine
}

type delivery struct {
	src mem.NodeID
	msg Message
	at  sim.Time
}

func (s *sink) Deliver(src mem.NodeID, msg Message) {
	s.got = append(s.got, delivery{src, msg, s.e.Now()})
}

func build(t *testing.T, nodes int) (*sim.Engine, *Network, []*sink) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, nodes, Config{Latency: 120, NIOverhead: 10, LinkBytes: 8})
	sinks := make([]*sink, nodes)
	for i := range sinks {
		sinks[i] = &sink{e: e}
		n.Attach(mem.NodeID(i), sinks[i])
	}
	return e, n, sinks
}

func TestDeliveryLatency(t *testing.T) {
	e, n, sinks := build(t, 2)
	n.Send(0, 0, 1, 16, "hello")
	e.RunUntilIdle()
	if len(sinks[1].got) != 1 {
		t.Fatalf("deliveries %d, want 1", len(sinks[1].got))
	}
	d := sinks[1].got[0]
	// occupancy = 10 + ceil(16/8) = 12 on each side; latency 120.
	want := sim.Time(12 + 120 + 12)
	if d.at != want {
		t.Fatalf("arrival at %d, want %d", d.at, want)
	}
	if d.src != 0 || d.msg != "hello" {
		t.Fatalf("delivery %+v", d)
	}
}

func TestFIFOPerPair(t *testing.T) {
	e, n, sinks := build(t, 2)
	for i := 0; i < 10; i++ {
		n.Send(0, 0, 1, 128, i)
	}
	e.RunUntilIdle()
	if len(sinks[1].got) != 10 {
		t.Fatalf("deliveries %d", len(sinks[1].got))
	}
	for i, d := range sinks[1].got {
		if d.msg != i {
			t.Fatalf("reordered: slot %d holds %v", i, d.msg)
		}
		if i > 0 && d.at < sinks[1].got[i-1].at {
			t.Fatal("arrival times regressed")
		}
	}
}

func TestNIOccupancySerializes(t *testing.T) {
	e, n, sinks := build(t, 3)
	// Two messages from node 0 at the same instant: the second pays
	// send-NI queuing even though destinations differ.
	n.Send(0, 0, 1, 16, "a")
	n.Send(0, 0, 2, 16, "b")
	e.RunUntilIdle()
	if sinks[1].got[0].at == sinks[2].got[0].at {
		t.Fatal("send-side NI did not serialize")
	}
}

func TestLoopback(t *testing.T) {
	e, n, sinks := build(t, 2)
	n.Send(0, 1, 1, 16, "self")
	e.RunUntilIdle()
	if len(sinks[1].got) != 1 || sinks[1].got[0].src != 1 {
		t.Fatal("loopback failed")
	}
}

func TestStats(t *testing.T) {
	e, n, _ := build(t, 2)
	n.Send(0, 0, 1, 100, "x")
	n.Send(0, 1, 0, 50, "y")
	e.RunUntilIdle()
	if n.Stats.Messages != 2 || n.Stats.Bytes != 150 {
		t.Fatalf("stats %+v", n.Stats)
	}
	n.ResetStats()
	if n.Stats.Messages != 0 {
		t.Fatal("reset failed")
	}
}

func TestSendToUnattachedPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2, DefaultConfig)
	defer func() {
		if recover() == nil {
			t.Error("send to unattached node did not panic")
		}
	}()
	n.Send(0, 0, 1, 16, "x")
}

func TestPastSendClamped(t *testing.T) {
	e, n, sinks := build(t, 2)
	e.Schedule(100, func() {
		n.Send(10, 0, 1, 16, "late") // at < now: clamped to now
	})
	e.RunUntilIdle()
	if len(sinks[1].got) != 1 || sinks[1].got[0].at < 100 {
		t.Fatal("past send not clamped to now")
	}
}

func TestNodesAccessor(t *testing.T) {
	_, n, _ := build(t, 5)
	if n.Nodes() != 5 {
		t.Fatalf("nodes %d", n.Nodes())
	}
}

func TestLoopbackPaysBothNIOccupancies(t *testing.T) {
	e, n, sinks := build(t, 2)
	// src == dst (the IPC server may be co-located): the message must
	// still pay send-NI occupancy, the wire latency, and receive-NI
	// occupancy — occ = 10 + ceil(16/8) = 12 per side.
	n.Send(0, 1, 1, 16, "self")
	e.RunUntilIdle()
	if len(sinks[1].got) != 1 {
		t.Fatalf("deliveries %d, want 1", len(sinks[1].got))
	}
	want := sim.Time(12 + 120 + 12)
	if at := sinks[1].got[0].at; at != want {
		t.Errorf("loopback arrival at %d, want %d", at, want)
	}
	if free := n.sendNI[1].FreeAt(); free != 12 {
		t.Errorf("send NI horizon %d, want 12", free)
	}
	if free := n.recvNI[1].FreeAt(); free != want {
		t.Errorf("recv NI horizon %d, want %d", free, want)
	}
}

func TestLoopbackSerializesOnSendNI(t *testing.T) {
	e, n, sinks := build(t, 1)
	n.Send(0, 0, 0, 16, "a")
	n.Send(0, 0, 0, 16, "b")
	e.RunUntilIdle()
	if len(sinks[0].got) != 2 {
		t.Fatalf("deliveries %d, want 2", len(sinks[0].got))
	}
	// Second message queues behind the first on both the send and
	// receive NI: one extra occupancy (12) later.
	if d := sinks[0].got[1].at - sinks[0].got[0].at; d != 12 {
		t.Errorf("loopback spacing %d, want 12", d)
	}
}

func TestOccupancyRoundingAtLinkBytesBoundaries(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 1, Config{Latency: 120, NIOverhead: 20, LinkBytes: 8})
	cases := []struct {
		size int
		want sim.Time
	}{
		{0, 20},       // header-free control: overhead only
		{1, 21},       // partial link beat rounds up
		{7, 21},       // still one beat
		{8, 21},       // exact boundary: one beat
		{9, 22},       // boundary + 1 rounds to two beats
		{16, 22},      // exact two beats
		{17, 23},      // two beats + 1
		{64 + 16, 30}, // a line + header: 10 beats
	}
	for _, c := range cases {
		if got := n.occupancy(c.size); got != c.want {
			t.Errorf("occupancy(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// LinkBytes = 0 disables the size-proportional term entirely.
	free := New(e, 1, Config{Latency: 1, NIOverhead: 7, LinkBytes: 0})
	if got := free.occupancy(1 << 20); got != 7 {
		t.Errorf("LinkBytes=0: occupancy = %d, want 7", got)
	}
}

func TestSendToNilHandlerAmongAttachedPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 2, DefaultConfig)
	s := &sink{e: e}
	n.Attach(0, s) // node 1 deliberately left unattached
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send to nil handler did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "node 1") {
			t.Errorf("panic %v does not name the unattached node", r)
		}
	}()
	n.Send(0, 0, 1, 16, "x")
}

func TestResetStatsKeepsNIHorizons(t *testing.T) {
	e, n, _ := build(t, 2)
	n.Send(0, 0, 1, 128, "x")
	e.RunUntilIdle()
	sendFree, recvFree := n.sendNI[0].FreeAt(), n.recvNI[1].FreeAt()
	if sendFree == 0 || recvFree == 0 {
		t.Fatal("send left no NI horizon to preserve")
	}
	n.ResetStats()
	if n.Stats.Messages != 0 || n.Stats.Bytes != 0 {
		t.Errorf("stats not cleared: %+v", n.Stats)
	}
	if g := n.sendNI[0].Grants; g != 0 {
		t.Errorf("send NI grants %d after reset", g)
	}
	// The occupancy horizons must survive, so a measurement window
	// carved out mid-run still queues behind in-flight occupancy.
	if got := n.sendNI[0].FreeAt(); got != sendFree {
		t.Errorf("send NI horizon %d after reset, want %d", got, sendFree)
	}
	if got := n.recvNI[1].FreeAt(); got != recvFree {
		t.Errorf("recv NI horizon %d after reset, want %d", got, recvFree)
	}
}
