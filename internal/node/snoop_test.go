package node_test

import (
	"strings"
	"testing"

	"prism/internal/cache"
	"prism/internal/core"
	"prism/internal/mem"
	"prism/internal/sim"
)

// twoNodeMachine builds an idle two-node machine of the default node.
func twoNodeMachine(tb testing.TB) *core.Machine {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	m, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestCheckInvariantsAuditsCaches plants each fault the node's cache
// check looks for, an L1 line its L2 lacks and a snoop filter bucket
// that disagrees with the L2s, and expects a one-line error naming it.
func TestCheckInvariantsAuditsCaches(t *testing.T) {
	const pa = mem.PAddr(0x12340)
	oneLine := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
			t.Fatalf("got %v, want a one-line error containing %q", err, want)
		}
	}

	m := twoNodeMachine(t)
	p := m.Nodes[1].Procs[2]
	p.L2().Insert(pa, cache.Shared)
	p.L1().Insert(pa, cache.Shared)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("consistent caches: %v", err)
	}
	p.L1().Insert(pa+0x1000, cache.Modified)
	oneLine(m.CheckInvariants(), "n1p2.L1 holds line 0x13340")

	m = twoNodeMachine(t)
	stray := cache.New("stray", core.DefaultConfig().Node.L2)
	stray.Insert(pa, cache.Exclusive)
	stray.ShareFilter(m.Nodes[0].L2Filter()) // counts a line no L2 of node 0 holds
	oneLine(m.CheckInvariants(), "node 0: cache: filter bucket")
}

// sawDirty is a retrieve continuation that records whether any
// retrieve found a Modified copy.
type sawDirty bool

func (s *sawDirty) Retrieved(_ sim.Time, dirty bool) { *s = *s || sawDirty(dirty) }

// BenchmarkBusSnoop measures one controller-initiated bus transaction
// (Node.Retrieve of a line, downgrading any copy) with its snoop of the
// node's four processors, and its completion event: once for a line no
// cache on the node holds, which the snoop filter answers without a
// probe, and once for a line another L2 holds.
func BenchmarkBusSnoop(b *testing.B) {
	for _, held := range []bool{false, true} {
		name := "absent"
		if held {
			name = "held"
		}
		b.Run(name, func(b *testing.B) {
			m := twoNodeMachine(b)
			n := m.Nodes[0]
			const pa = mem.PAddr(0x12340)
			if held {
				q := n.Procs[1]
				q.L2().Insert(pa, cache.Shared)
				q.L1().Insert(pa, cache.Shared)
			}
			var done sawDirty
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Retrieve(pa, false, &done)
				m.E.RunUntilIdle()
			}
			if done {
				b.Fatal("a Shared copy reported dirty")
			}
			if got := n.Procs[1].L2().Probe(pa) != cache.Invalid; got != held {
				b.Fatalf("line held after the benchmark: %v, want %v", got, held)
			}
		})
	}
}
