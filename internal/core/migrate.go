package core

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/sim"
)

// GlobalPageOf resolves the global page backing virtual address va
// (under the loader's identical-attach convention all nodes agree).
func (m *Machine) GlobalPageOf(va mem.VAddr) (mem.GPage, bool) {
	return m.Nodes[0].Kern.GlobalPage(va.Page(m.Cfg.Geometry))
}

// StaticHomeOf returns the static home node of va's page.
func (m *Machine) StaticHomeOf(va mem.VAddr) (mem.NodeID, bool) {
	g, ok := m.GlobalPageOf(va)
	if !ok {
		return 0, false
	}
	return m.Reg.StaticHome(g), true
}

// DynamicHomeOf returns the current dynamic home of va's page.
func (m *Machine) DynamicHomeOf(va mem.VAddr) (mem.NodeID, bool) {
	g, ok := m.GlobalPageOf(va)
	if !ok {
		return 0, false
	}
	return m.Reg.DynamicHome(g), true
}

// MigratePage migrates the page containing va to node `to`, blocking
// the calling processor until the static home commits. Workload
// (processor-coroutine) context only.
func (c *Ctx) MigratePage(va mem.VAddr, to mem.NodeID) error {
	g, ok := c.m.GlobalPageOf(va)
	if !ok {
		return fmt.Errorf("core: %v is not in a global segment", va)
	}
	static := c.m.Reg.StaticHome(g)
	kern := c.m.Nodes[static].Kern
	p := c.P

	var migErr error
	c.m.E.At(p.Now(), func() {
		if err := kern.MigratePage(g, to, func(at sim.Time) {
			c.stepAt(at)
		}); err != nil {
			migErr = err
			c.stepAt(c.m.E.Now())
		}
	})
	p.Coro().Block()
	return migErr
}

// SetPageCaps installs a memory-firewall capability mask on the page
// containing va at its current dynamic home: only the listed nodes
// (plus the homes themselves) may access the page's frame from the
// network. The page must be mapped at its home.
func (m *Machine) SetPageCaps(va mem.VAddr, allowed []mem.NodeID) error {
	g, ok := m.GlobalPageOf(va)
	if !ok {
		return fmt.Errorf("core: %v is not in a global segment", va)
	}
	home := m.Reg.DynamicHome(g)
	p := m.Nodes[home].Ctrl.PIT
	f, ok := p.FrameFor(g)
	if !ok {
		return fmt.Errorf("core: %v not mapped at its home node %d", g, home)
	}
	p.Entry(f).Caps = mem.NodeSetOf(allowed...)
	return nil
}

// stepAt resumes the context's processor at time at. The processor is
// its own wake-up event (node.Proc implements sim.EventHandler), so
// the deferred branch allocates nothing.
func (c *Ctx) stepAt(at sim.Time) {
	if at > c.m.E.Now() {
		c.m.E.AtEvent(at, c.P)
		return
	}
	c.P.AdvanceTo(at)
	c.P.Coro().Step()
}
