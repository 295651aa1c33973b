// Unit tests for the controller's standalone pieces. The protocol's
// end-to-end behavior (tag transitions, recalls, invalidation fan-out,
// grant-ack serialization, migration forwarding) is exercised by the
// scripted scenarios and the fuzzer in internal/core, which assemble
// full machines.
package coherence

import (
	"testing"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/sim"
	"prism/internal/timing"
)

type nopLocal struct{}

func (nopLocal) Retrieve(pa mem.PAddr, inval bool, done func(at sim.Time, dirty bool)) {
	done(0, false)
}
func (nopLocal) InvalidateFrameLines(f mem.FrameID) []int { return nil }

type fixedRouter struct{ home mem.NodeID }

func (r fixedRouter) StaticHome(g mem.GPage) mem.NodeID  { return r.home }
func (r fixedRouter) DynamicHome(g mem.GPage) mem.NodeID { return r.home }

func mkCtrl(t *testing.T) (*Controller, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine()
	geom := mem.DefaultGeometry
	tm := timing.Default()
	net := network.New(e, 2, network.DefaultConfig)
	p := pit.New(0, geom, pit.DefaultConfig)
	d := directory.New(0, geom, directory.DefaultConfig)
	var memRes sim.Resource
	c := New(e, 0, geom, &tm, Config{}, p, d, net, &memRes, nopLocal{}, fixedRouter{home: 1}, nil)
	net.Attach(0, handlerFunc(func(src mem.NodeID, msg network.Message) { c.Deliver(src, msg) }))
	net.Attach(1, handlerFunc(func(src mem.NodeID, msg network.Message) {}))
	return c, e
}

type handlerFunc func(src mem.NodeID, msg network.Message)

func (f handlerFunc) Deliver(src mem.NodeID, msg network.Message) { f(src, msg) }

func TestStatsReset(t *testing.T) {
	s := Stats{RemoteMisses: 5, Upgrades: 3, Forwards: 1}
	s.Reset()
	if s != (Stats{}) {
		t.Fatalf("reset left %+v", s)
	}
}

func TestDebugStateEmptyWhenIdle(t *testing.T) {
	c, _ := mkCtrl(t)
	if s := c.DebugState(); s != "" {
		t.Fatalf("idle controller reports %q", s)
	}
}

func TestSetHomeAndClientTags(t *testing.T) {
	c, _ := mkCtrl(t)
	g := mem.GPage{Seg: 1, Page: 0}
	ent := pit.Entry{Mode: pit.ModeSCOMA, GPage: g, StaticHome: 0, DynHome: 0}
	c.PIT.Insert(4, ent)

	lines := make([]directory.Line, 64)
	lines[0] = directory.Line{Excl: true, Owner: 0} // ours
	lines[1] = directory.Line{Excl: true, Owner: 1} // theirs
	lines[2].AddSharer(0)                           // we share
	lines[3].AddSharer(1)                           // they share

	c.SetHomeTags(4, lines)
	e := c.PIT.Entry(4)
	want := []pit.Tag{pit.TagExclusive, pit.TagInvalid, pit.TagShared, pit.TagShared}
	for i, w := range want {
		if e.Tags[i] != w {
			t.Errorf("home tag[%d] = %v, want %v", i, e.Tags[i], w)
		}
	}
	// SetHomeTags adds our sharer bit on shared lines (our memory now
	// backs them).
	if !lines[3].IsSharer(0) {
		t.Error("home sharer bit not added")
	}

	c.SetClientTags(4, lines)
	wantC := []pit.Tag{pit.TagExclusive, pit.TagInvalid, pit.TagShared, pit.TagShared}
	for i, w := range wantC {
		if e.Tags[i] != w {
			t.Errorf("client tag[%d] = %v, want %v", i, e.Tags[i], w)
		}
	}
	if !e.Dirty[0] {
		t.Error("demoted owner line must be marked dirty (flush on recall)")
	}
}

func TestMigrateOutInTombstone(t *testing.T) {
	c, _ := mkCtrl(t)
	g := mem.GPage{Seg: 1, Page: 3}
	c.Dir.AddPage(g, 0)
	if !c.PageQuiescent(g) {
		t.Fatal("fresh page not quiescent")
	}
	lines := c.MigrateOut(g, 1)
	if lines == nil || c.Dir.HasPage(g) {
		t.Fatal("MigrateOut did not remove the directory")
	}
	if dst, ok := c.forwardTarget(g); !ok || dst != 1 {
		t.Fatalf("tombstone %v/%v, want ->1", dst, ok)
	}
	c.MigrateIn(g, lines)
	if !c.Dir.HasPage(g) {
		t.Fatal("MigrateIn did not adopt")
	}
	if _, ok := c.forwardTarget(g); ok {
		t.Fatal("tombstone survived MigrateIn")
	}
}

func TestHotPagesOrdering(t *testing.T) {
	c, _ := mkCtrl(t)
	a := mem.GPage{Seg: 1, Page: 1}
	b := mem.GPage{Seg: 1, Page: 2}
	for i := 0; i < 10; i++ {
		c.recordTraffic(a, 1)
	}
	for i := 0; i < 3; i++ {
		c.recordTraffic(b, 1)
	}
	c.recordTraffic(b, 0) // self traffic does not count toward Total
	hot := c.HotPages(1)
	if len(hot) != 2 || hot[0].Page != a || hot[0].Total != 10 || hot[1].Total != 3 {
		t.Fatalf("hot pages %+v", hot)
	}
	if len(c.HotPages(5)) != 1 {
		t.Fatal("threshold filter broken")
	}
	c.ResetTraffic()
	if len(c.HotPages(0)) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

// TestLineKeyPacking: the packed key round-trips every field at its
// extremes, so distinct lines of any geometry mem.Geometry.Validate
// accepts never share a key.
func TestLineKeyPacking(t *testing.T) {
	pages := []mem.GPage{{}, {Seg: 1, Page: 1}, {Seg: ^mem.GSID(0), Page: ^uint32(0)}}
	lines := []int{0, 1, mem.MaxLinesPerPage - 1}
	seen := map[lineKey]bool{}
	for _, g := range pages {
		for _, ln := range lines {
			k := keyOf(g, ln)
			if k.page() != g || k.line() != ln {
				t.Errorf("keyOf(%v, %d) unpacks to %v, %d", g, ln, k.page(), k.line())
			}
			if seen[k] {
				t.Errorf("keyOf(%v, %d) = %#x collides", g, ln, uint64(k))
			}
			seen[k] = true
		}
	}
}

func TestHeldTrafficQueuesAndReleases(t *testing.T) {
	c, e := mkCtrl(t)
	g := mem.GPage{Seg: 1, Page: 5}
	c.Dir.AddPage(g, 0)
	c.MigrateOut(g, 1) // installs the hold

	delivered := 0
	if !c.isHeld(g) {
		t.Fatal("hold not installed")
	}
	c.held[g] = append(c.held[g], func() { delivered++ })
	c.held[g] = append(c.held[g], func() { delivered++ })
	if delivered != 0 {
		t.Fatal("held traffic ran early")
	}
	c.ReleasePage(g)
	e.RunUntilIdle()
	if delivered != 2 {
		t.Fatalf("released %d, want 2", delivered)
	}
	if c.isHeld(g) {
		t.Fatal("hold persists after release")
	}
}

func TestLockAcquirePanicsOnWrongMode(t *testing.T) {
	c, _ := mkCtrl(t)
	ent := c.PIT.Insert(9, pit.Entry{Mode: pit.ModeSCOMA, GPage: mem.GPage{Seg: 2}, DynHome: 1})
	defer func() {
		if recover() == nil {
			t.Error("LockAcquire on S-COMA frame did not panic")
		}
	}()
	c.LockAcquire(0, 9, 0, ent, func(sim.Time) {})
}
