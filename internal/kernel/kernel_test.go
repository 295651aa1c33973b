// Unit tests for the kernel's standalone pieces. Page-fault flows,
// paging protocols, policy integration and migration are exercised
// end-to-end by internal/core's scripted scenarios and fuzzer.
package kernel

import (
	"testing"

	"prism/internal/ipc"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/internal/timing"
)

func mkKernel(t testing.TB, frames int) *Kernel {
	t.Helper()
	e := sim.NewEngine()
	geom := mem.DefaultGeometry
	tm := timing.Default()
	reg := ipc.NewRegistry(geom, 4)
	net := network.New(e, 4, network.DefaultConfig)
	return New(e, 0, geom, &tm, Config{RealFrames: frames}, reg, net, policy.SCOMA{})
}

func TestNewRejectsNoMemory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-frame kernel did not panic")
		}
	}()
	mkKernel(t, 0)
}

func TestFramePools(t *testing.T) {
	k := mkKernel(t, 4)
	a := k.allocReal()
	b := k.allocReal()
	if a == b {
		t.Fatal("duplicate real frames")
	}
	if k.RealFramesInUse() != 2 || k.Stats.RealAllocated != 2 {
		t.Fatalf("accounting %d/%d", k.RealFramesInUse(), k.Stats.RealAllocated)
	}
	k.freeFrame(a, nil)
	if k.RealFramesInUse() != 1 {
		t.Fatal("free not accounted")
	}
	if c := k.allocReal(); c != a {
		t.Fatalf("free list not reused: got %d, want %d", c, a)
	}

	i1 := k.allocImag()
	i2 := k.allocImag()
	if i1 < imagBase || i2 != i1+1 {
		t.Fatalf("imaginary numbering %d/%d", i1, i2)
	}
	if k.Stats.ImagAllocated != 2 {
		t.Fatal("imaginary accounting")
	}
	// Imaginary frames consume no physical memory.
	inUse := k.RealFramesInUse()
	k.freeFrame(i1, nil)
	if k.RealFramesInUse() != inUse {
		t.Fatal("imaginary free touched the real pool")
	}
}

func TestRealExhaustionPanics(t *testing.T) {
	k := mkKernel(t, 2)
	k.allocReal()
	k.allocReal()
	defer func() {
		if recover() == nil {
			t.Error("exhaustion did not panic")
		}
	}()
	k.allocReal()
}

func TestAttachAndTranslate(t *testing.T) {
	k := mkKernel(t, 16)
	seg, err := k.reg.Shmget("seg", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AttachGlobal(7, seg.GSID); err != nil {
		t.Fatal(err)
	}
	k.AttachPrivate(9)

	g, ok := k.GlobalPage(mem.VPage{Seg: 7, Page: 3})
	if !ok || g != (mem.GPage{Seg: seg.GSID, Page: 3}) {
		t.Fatalf("global page %v/%v", g, ok)
	}
	if _, ok := k.GlobalPage(mem.VPage{Seg: 9, Page: 0}); ok {
		t.Error("private segment translated to a global page")
	}
	if _, ok := k.GlobalPage(mem.VPage{Seg: 42, Page: 0}); ok {
		t.Error("unattached segment translated")
	}
	vp, ok := k.vpageOf(mem.GPage{Seg: seg.GSID, Page: 5})
	if !ok || vp != (mem.VPage{Seg: 7, Page: 5}) {
		t.Fatalf("vpageOf %v/%v", vp, ok)
	}
	if err := k.AttachGlobal(8, 999); err == nil {
		t.Error("attach of unknown gsid accepted")
	}
}

func TestSetPageModeStickiness(t *testing.T) {
	k := mkKernel(t, 16)
	g := mem.GPage{Seg: 1, Page: 0}
	k.SetPageMode(g, pit.ModeLANUMA)
	if k.PageModeOf(g) != pit.ModeLANUMA {
		t.Fatal("mode not pinned")
	}
	k.SetPageMode(g, pit.ModeSCOMA)
	if k.PageModeOf(g) != pit.ModeInvalid {
		t.Fatal("S-COMA pin should clear the sticky entry")
	}
}

func TestStatsReset(t *testing.T) {
	s := Stats{Faults: 3, ClientPageOuts: 2, RealAllocated: 9}
	s.Reset()
	if s.Faults != 0 || s.ClientPageOuts != 0 || s.RealAllocated != 0 {
		t.Fatalf("reset left %+v", s)
	}
}

func TestVictimQueriesEmpty(t *testing.T) {
	k := mkKernel(t, 16)
	// Victim queries need a bound controller for PIT access; with no
	// client frames they must return ok=false without touching it.
	if _, ok := k.LRUVictim(); ok {
		t.Error("LRU victim from empty kernel")
	}
	if _, ok := k.MostInvalidVictim(); ok {
		t.Error("util victim from empty kernel")
	}
}
