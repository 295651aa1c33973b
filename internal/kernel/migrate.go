package kernel

import (
	"fmt"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// This file implements the OS half of lazy page migration (§3.5). The
// static home coordinates: it asks the old dynamic home to quiesce and
// export the page (directory + data), the new home adopts it, and the
// static home commits the new location in its registry. Client nodes
// are never involved: their PIT entries self-correct through the
// misdirected-request forwarding path.

// MigratePrepMsg asks the current dynamic home to export page g to To.
type MigratePrepMsg struct {
	Page mem.GPage
	To   mem.NodeID
}

// MigrateDataMsg carries the page data and directory to the new home.
type MigrateDataMsg struct {
	Page mem.GPage
	Dir  []directory.Line
}

// MigrateCommitMsg tells the static home the new dynamic home is live.
type MigrateCommitMsg struct {
	Page     mem.GPage
	NewFrame mem.FrameID
}

// MigrateDoneMsg tells the old dynamic home the commit is published,
// releasing the traffic it held during the window.
type MigrateDoneMsg struct {
	Page mem.GPage
}

type migRecord struct {
	node  mem.NodeID
	frame mem.FrameID
}

// MigratePage migrates page g's dynamic home to node to. It must be
// called on the page's static home kernel. done runs in engine context
// when the registry has committed; err covers precondition failures.
func (k *Kernel) MigratePage(g mem.GPage, to mem.NodeID, done func(at sim.Time)) error {
	if k.reg.StaticHome(g) != k.node {
		return fmt.Errorf("kernel: node %d is not the static home of %v", k.node, g)
	}
	if _, busy := k.migrating[g]; busy {
		return fmt.Errorf("kernel: %v is already migrating", g)
	}
	cur := k.reg.DynamicHome(g)
	if cur == to {
		k.e.ScheduleCall(0, done)
		return nil
	}
	if cur == k.node {
		if _, ok := k.homePages[g]; !ok {
			return fmt.Errorf("kernel: %v is not mapped at its home", g)
		}
	}
	if int(to) < 0 || int(to) >= k.reg.Nodes() {
		return fmt.Errorf("kernel: bad migration target %d", to)
	}
	if k.migrating == nil {
		k.migrating = make(map[mem.GPage]func(at sim.Time))
	}
	start := k.e.Now()
	k.migrating[g] = func(at sim.Time) {
		k.histMigration.Observe(at - start)
		done(at)
	}
	k.Stats.Migrations++
	t := k.e.Now() + k.tm.PageOutKernel/2
	k.net.Send(t, k.node, cur, k.tm.MsgHeader, &MigratePrepMsg{Page: g, To: to})
	return nil
}

// handleMigratePrep runs at the old dynamic home: quiesce, export,
// demote, ship.
func (k *Kernel) handleMigratePrep(src mem.NodeID, m *MigratePrepMsg) {
	g := m.Page
	var attempt func()
	attempt = func() {
		if !k.ctrl.PageQuiescent(g) {
			k.e.Schedule(64, attempt)
			return
		}
		lines := k.ctrl.MigrateOut(g, m.To)
		k.demoteHome(g, m.To, lines)
		size := k.geom.PageSize + len(lines)*8
		t := k.e.Now() + k.tm.PageOutKernel
		k.net.Send(t, k.node, m.To, size, &MigrateDataMsg{Page: g, Dir: lines})
	}
	attempt()
}

// demoteHome converts this node's home mapping of g into a client
// mapping (if locally used) or frees it.
func (k *Kernel) demoteHome(g mem.GPage, to mem.NodeID, lines []directory.Line) {
	var f mem.FrameID
	if hp, ok := k.homePages[g]; ok {
		f = hp.frame
		delete(k.homePages, g)
	} else if df, ok := k.dynPages[g]; ok {
		f = df
		delete(k.dynPages, g)
	} else {
		panic(fmt.Sprintf("kernel: node %d has no home mapping for %v", k.node, g))
	}

	ent := k.ctrl.PIT.Entry(f)
	vp, attached := k.vpageOf(g)
	_, mapped := k.pt[vp]
	if attached && mapped {
		// Stay a client: same frame, client tags derived from the
		// directory snapshot that is being shipped.
		ent.DynHome = to
		ent.HomeFrameKnown = false
		k.ctrl.SetClientTags(f, lines)
		fb := k.frames[f]
		fb.vp = vp
		k.setClient(fb, true)
		k.homeStatus[g] = true
		k.dynHomeHint[g] = to
		delete(k.homeFrameHint, g)
		return
	}
	// Unused locally: reclaim the frame (the migration motivation of
	// §3.5: "if the home node needs to reclaim a page frame...").
	rent := k.ctrl.PIT.Remove(f)
	k.unbindFrame(f)
	k.freeFrame(f, rent)
}

// handleMigrateData runs at the new dynamic home: adopt the page.
func (k *Kernel) handleMigrateData(src mem.NodeID, m *MigrateDataMsg) {
	g := m.Page
	var attempt func()
	attempt = func() {
		// Wait out any local fault or page-out touching this page.
		if _, busy := k.pageBusy[g]; busy {
			k.e.Schedule(64, attempt)
			return
		}
		if vp, ok := k.vpageOf(g); ok {
			if _, faulting := k.inProgress[vp]; faulting {
				k.e.Schedule(64, attempt)
				return
			}
		}
		f := k.promoteHome(g, m.Dir)
		k.ctrl.MigrateIn(g, m.Dir)
		// Charge the page-sized memory fill.
		k.e.Schedule(k.tm.PageOutKernel/2, func() {
			k.net.Send(k.e.Now(), k.node, k.reg.StaticHome(g), k.tm.MsgHeader,
				&MigrateCommitMsg{Page: g, NewFrame: f})
		})
	}
	attempt()
}

// promoteHome installs g's home mapping here, reusing or replacing any
// existing client mapping.
func (k *Kernel) promoteHome(g mem.GPage, lines []directory.Line) mem.FrameID {
	if k.dynPages == nil {
		k.dynPages = make(map[mem.GPage]mem.FrameID)
	}
	if old, ok := k.ctrl.PIT.FrameFor(g); ok {
		ent := k.ctrl.PIT.Entry(old)
		switch ent.Mode {
		case pit.ModeSCOMA:
			// Promote the client frame in place.
			ent.DynHome = k.node
			ent.HomeFrame = old
			ent.HomeFrameKnown = true
			k.ctrl.SetHomeTags(old, lines)
			k.setClient(k.frames[old], false)
			k.dynPages[g] = old
			k.dynHomeHint[g] = k.node
			k.homeFrameHint[g] = old
			return old
		case pit.ModeLANUMA:
			// Replace the imaginary frame with a real one, moving the
			// old binding's vp over before it is recycled.
			k.ctrl.Local().InvalidateFrameLines(old)
			rent := k.ctrl.PIT.Remove(old)
			fb := k.frames[old]
			k.freeFrame(old, rent)
			f := k.newHomeFrame(g, lines)
			if fb != nil {
				vp := fb.vp
				k.unbindFrame(old)
				k.ptSet(vp, PTE{Frame: f, Mode: pit.ModeSCOMA})
				k.hw.TLBShootdown(vp)
				k.frames[f].vp = vp
			}
			return f
		}
	}
	return k.newHomeFrame(g, lines)
}

// newHomeFrame allocates and tags a fresh home frame for g.
func (k *Kernel) newHomeFrame(g mem.GPage, lines []directory.Line) mem.FrameID {
	f := k.allocReal()
	ent := pit.Entry{
		Mode: pit.ModeSCOMA, GPage: g,
		StaticHome: k.reg.StaticHome(g), DynHome: k.node,
		HomeFrame: f, HomeFrameKnown: true,
		Caps: mem.AllNodes(),
	}
	k.ctrl.PIT.Insert(f, ent)
	k.ctrl.SetHomeTags(f, lines)
	k.bindFrame(f, mem.VPage{}, g, false)
	k.dynPages[g] = f
	k.dynHomeHint[g] = k.node
	k.homeFrameHint[g] = f
	return f
}

// handleMigrateCommit runs at the static home: publish the new dynamic
// home and complete the migration.
func (k *Kernel) handleMigrateCommit(src mem.NodeID, m *MigrateCommitMsg) {
	g := m.Page
	old := k.reg.DynamicHome(g)
	k.reg.SetDynamicHome(g, src)
	if k.migratedAway == nil {
		k.migratedAway = make(map[mem.GPage]migRecord)
	}
	if src == k.node {
		delete(k.migratedAway, g)
	} else {
		k.migratedAway[g] = migRecord{node: src, frame: m.NewFrame}
	}
	// Release the traffic held at the old home during the window.
	k.net.Send(k.e.Now(), k.node, old, k.tm.MsgHeader, &MigrateDoneMsg{Page: g})
	done := k.migrating[g]
	delete(k.migrating, g)
	if done != nil {
		done(k.e.Now())
	}
}

// handleMigrateDone releases held traffic at the old dynamic home.
func (k *Kernel) handleMigrateDone(src mem.NodeID, m *MigrateDoneMsg) {
	k.ctrl.ReleasePage(m.Page)
}
