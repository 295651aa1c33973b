package core

import (
	"fmt"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/pit"
)

// CheckInvariants audits cross-node protocol state after a run (or at
// any quiescent point): fine-grain tags must agree with the directory,
// ownership must be unique, and no transaction may be left dangling.
// It returns the first violation found, or nil. Tests call this after
// every scenario; it is also available to users chasing protocol bugs
// in extended configurations.
func (m *Machine) CheckInvariants() error {
	// 0. The recovery transport (if armed) must have quiesced: every
	// transmission acked, no out-of-order arrivals still buffered.
	if err := m.Net.CheckQuiesced(); err != nil {
		return err
	}

	// 1. No dangling transactions anywhere, no kernel serving a stale
	// software-TLB translation, every kernel's client list exact, L1
	// inclusive in L2 and every node's snoop filter exact.
	for _, n := range m.Nodes {
		if s := n.Ctrl.DebugState(); s != "" {
			return fmt.Errorf("core: dangling transactions:\n%s", s)
		}
		if err := n.CheckCaches(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if err := n.Kern.CheckTLB(); err != nil {
			return err
		}
		if err := n.Kern.CheckClients(); err != nil {
			return err
		}
	}

	// 2. Every global page's directory lives exactly at its dynamic
	// home, and tags at every node agree with it.
	type pageLoc struct {
		page mem.GPage
		node mem.NodeID
	}
	dirAt := map[mem.GPage]pageLoc{}
	for _, n := range m.Nodes {
		node := n
		var err error
		n.Ctrl.PIT.Frames(func(f mem.FrameID, e *pit.Entry) {
			if err != nil || !e.Mode.Global() {
				return
			}
			if e.DynHome == node.ID {
				if node.Ctrl.Dir.HasPage(e.GPage) {
					if prev, dup := dirAt[e.GPage]; dup && prev.node != node.ID {
						err = fmt.Errorf("core: %v has directories at nodes %d and %d", e.GPage, prev.node, node.ID)
						return
					}
					dirAt[e.GPage] = pageLoc{e.GPage, node.ID}
				} else {
					err = fmt.Errorf("core: node %d claims to be home of %v but has no directory", node.ID, e.GPage)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}

	// 3. Tag/directory agreement per line.
	for _, n := range m.Nodes {
		node := n
		var err error
		n.Ctrl.PIT.Frames(func(f mem.FrameID, e *pit.Entry) {
			if err != nil || e.Mode != pit.ModeSCOMA {
				return
			}
			loc, ok := dirAt[e.GPage]
			if !ok {
				err = fmt.Errorf("core: node %d maps %v with no directory anywhere", node.ID, e.GPage)
				return
			}
			home := m.Nodes[loc.node]
			for ln, tag := range e.Tags {
				dl, ok := home.Ctrl.Dir.Peek(e.GPage, ln)
				if !ok {
					err = fmt.Errorf("core: missing dir line %v:%d", e.GPage, ln)
					return
				}
				if verr := checkLine(node.ID, e, ln, tag, dl); verr != nil {
					err = verr
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}

	// 4. Unique exclusive ownership: at most one node's caches may
	// hold a line writable.
	for g := range dirAt {
		lines := m.Cfg.Geometry.LinesPerPage()
		for ln := 0; ln < lines; ln++ {
			owners := 0
			for _, n := range m.Nodes {
				f, ok := n.Ctrl.PIT.FrameFor(g)
				if !ok {
					continue
				}
				e := n.Ctrl.PIT.Entry(f)
				if e.Mode == pit.ModeSCOMA && e.Tags[ln] == pit.TagExclusive {
					owners++
				}
			}
			if owners > 1 {
				return fmt.Errorf("core: %v line %d exclusive at %d nodes", g, ln, owners)
			}
		}
	}
	return nil
}

// checkLine validates one node's tag against the home's directory
// entry for the same line.
func checkLine(node mem.NodeID, e *pit.Entry, ln int, tag pit.Tag, dl *directory.Line) error {
	switch tag {
	case pit.TagTransit:
		return fmt.Errorf("core: node %d %v line %d still in Transit at quiescence", node, e.GPage, ln)
	case pit.TagExclusive:
		if !dl.Excl || dl.Owner != node {
			return fmt.Errorf("core: node %d holds %v line %d Exclusive but directory says %v", node, e.GPage, ln, *dl)
		}
	case pit.TagShared:
		if dl.Excl && dl.Owner != node {
			return fmt.Errorf("core: node %d holds %v line %d Shared but directory says exclusive at %d", node, e.GPage, ln, dl.Owner)
		}
		if !dl.Excl && !dl.IsSharer(node) {
			return fmt.Errorf("core: node %d holds %v line %d Shared but is not a sharer (%v)", node, e.GPage, ln, *dl)
		}
	case pit.TagInvalid:
		// An invalid tag is always safe: the directory may still list
		// the node (stale sharer bits from silent drops are legal and
		// resolved by harmless invalidations).
	}
	return nil
}
