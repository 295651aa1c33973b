package core

import (
	"strings"
	"testing"

	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/policy"
)

// wideWL makes every processor a sharer of one hot line, then has
// processor 0 write it: the invalidation fanout must reach sharer bits
// past 63, and the final re-read round must re-populate them. Both the
// directory audit below and CheckInvariants would catch a truncated
// sharer set.
type wideWL struct{ base mem.VAddr }

func (w *wideWL) Name() string { return "wide-sharing" }
func (w *wideWL) Setup(m *Machine) error {
	b, err := m.Alloc("wide.data", 4096)
	w.base = b
	return err
}
func (w *wideWL) Run(ctx *Ctx) {
	p := ctx.P
	if ctx.ID == 0 {
		p.WriteRange(w.base, 64)
	}
	p.Barrier(1)
	p.ReadRange(w.base, 64)
	p.Barrier(2)
	if ctx.ID == 0 {
		p.WriteRange(w.base, 64)
	}
	p.Barrier(3)
	p.ReadRange(w.base, 64)
}

// maxSharerCount scans every node's PIT for global pages homed there
// and returns the widest sharer set any directory line reached.
func maxSharerCount(m *Machine) int {
	max := 0
	for _, n := range m.Nodes {
		node := n
		node.Ctrl.PIT.Frames(func(f mem.FrameID, e *pit.Entry) {
			if !e.Mode.Global() || e.DynHome != node.ID || !node.Ctrl.Dir.HasPage(e.GPage) {
				return
			}
			for ln := 0; ln < m.Cfg.Geometry.LinesPerPage(); ln++ {
				if dl, ok := node.Ctrl.Dir.Peek(e.GPage, ln); ok {
					if c := dl.SharerCount(); c > max {
						max = c
					}
				}
			}
		})
	}
	return max
}

func TestWideSharerFanout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 96
	cfg.Node.Procs = 1
	cfg.Kernel.RealFrames = 1024
	cfg.Policy = policy.SCOMA{}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(&wideWL{}); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := maxSharerCount(m); got < 96 {
		t.Fatalf("hot line reached %d sharers, want 96 (bitmap truncated above bit 63?)", got)
	}
}

// wideLockWL takes one lock per processor around a shared counter page: on
// a >61-processor machine with hardware sync this exercises the
// shifted hardware-sync VSID (it would collide with a private segment
// under the legacy fixed layout).
type wideLockWL struct {
	base mem.VAddr
	hits int
}

func (w *wideLockWL) Name() string { return "lock-fanout" }
func (w *wideLockWL) Setup(m *Machine) error {
	b, err := m.Alloc("lock.data", 4096)
	w.base = b
	return err
}
func (w *wideLockWL) Run(ctx *Ctx) {
	p := ctx.P
	p.Lock(1)
	p.ReadRange(w.base, 64)
	w.hits++
	p.WriteRange(w.base, 64)
	p.Unlock(1)
	p.Barrier(1)
}

func TestVSIDLayoutLargeMachine(t *testing.T) {
	// The legacy fixed slots must survive for every configuration that
	// fits them — committed goldens depend on those exact VSIDs.
	if hw, gb := vsidLayout(61); hw != legacyHWSyncVSID || gb != legacyGlobalBase {
		t.Fatalf("vsidLayout(61) = (%d,%d), want legacy (63,64)", hw, gb)
	}
	if hw, gb := vsidLayout(62); hw != 64 || gb != 65 {
		t.Fatalf("vsidLayout(62) = (%d,%d), want shifted (64,65)", hw, gb)
	}

	cfg := DefaultConfig()
	cfg.Nodes = 32
	cfg.Node.Procs = 4 // 128 procs: past the legacy hardware-sync slot
	cfg.Kernel.RealFrames = 1024
	cfg.Policy = policy.SCOMA{}
	cfg.HardwareSync = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &wideLockWL{}
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w.hits != 128 {
		t.Fatalf("critical section ran %d times, want 128", w.hits)
	}
}

func TestValidateNodeCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = mem.MaxNodes
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d nodes should validate: %v", mem.MaxNodes, err)
	}
	cfg.Nodes = mem.MaxNodes + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("%d nodes: got %v, want out-of-range error", cfg.Nodes, err)
	}
	cfg = DefaultConfig()
	cfg.Nodes = 256
	cfg.Node.Procs = 256 // 65536 private VSIDs cannot fit
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "VSID") {
		t.Fatalf("65536 procs: got %v, want VSID exhaustion error", err)
	}
}

// TestValidateSnoopFilterCap: a node whose L2s hold 65,536 lines in
// total would overflow the snoop filter's 16-bit counters, so the
// configuration is refused with a one-line error; one line fewer is
// accepted.
func TestValidateSnoopFilterCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Node.Procs = 128 // 128 × 512 lines of 32 KB
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "snoop filter") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("65,536 L2 lines per node: got %v, want a one-line snoop filter error", err)
	}
	cfg.Node.Procs = 127
	if err := cfg.Validate(); err != nil {
		t.Fatalf("65,024 L2 lines per node: %v", err)
	}
}
