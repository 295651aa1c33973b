package coherence

import (
	"fmt"
	"sort"

	"prism/internal/directory"
	"prism/internal/mem"
	"prism/internal/pit"
)

// This file holds the controller side of lazy page migration (§3.5):
// exporting/adopting a page's directory, the tombstone that forwards
// misdirected requests from an old dynamic home to the new one, and
// the per-page traffic counters that drive migration policies ("the
// coherence controller includes hardware counters for monitoring
// coherence traffic to each page").

// PageQuiescent reports whether no home-side transaction is active or
// queued on any line of page g. Migration waits for quiescence before
// exporting the directory.
func (c *Controller) PageQuiescent(g mem.GPage) bool {
	for ln := 0; ln < c.geom.LinesPerPage(); ln++ {
		key := keyOf(g, ln)
		if c.home[key] != nil || len(c.homeQ[key]) > 0 {
			return false
		}
	}
	return true
}

// MigrateOut removes page g's directory for transfer to a new dynamic
// home, leaving a tombstone that forwards late requests to dst. The
// page must be quiescent. The caller (the kernel) handles PIT and
// frame changes.
func (c *Controller) MigrateOut(g mem.GPage, dst mem.NodeID) []directory.Line {
	if !c.PageQuiescent(g) {
		panic(fmt.Sprintf("coherence: node %d: MigrateOut of busy page %v", c.node, g))
	}
	lines := c.Dir.RemovePage(g)
	if lines == nil {
		panic(fmt.Sprintf("coherence: node %d: MigrateOut without directory for %v", c.node, g))
	}
	if c.migratedTo == nil {
		c.migratedTo = make(map[mem.GPage]mem.NodeID)
	}
	c.migratedTo[g] = dst
	delete(c.pageTraffic, pageKey(g))
	// Hold home-role traffic for the page until the migration commits:
	// forwarding before the new home has adopted the directory would
	// ping-pong requests between the two nodes.
	if c.held == nil {
		c.held = make(map[mem.GPage][]func())
	}
	c.held[g] = []func(){}
	return lines
}

// ReleasePage re-dispatches traffic held during a migration window.
// Called when the static home confirms the commit.
func (c *Controller) ReleasePage(g mem.GPage) {
	q := c.held[g]
	delete(c.held, g)
	for _, fn := range q {
		c.e.Schedule(0, fn)
	}
}

// isHeld reports whether page g's home-role traffic is being held for
// a migration window. Deliver checks this before dispatching so the
// common (not-migrating) path builds no redelivery closure.
func (c *Controller) isHeld(g mem.GPage) bool {
	_, held := c.held[g]
	return held
}

// MigrateIn adopts page g's directory as the new dynamic home.
func (c *Controller) MigrateIn(g mem.GPage, lines []directory.Line) {
	c.Dir.AdoptPage(g, lines)
	delete(c.migratedTo, g) // this node is authoritative again
}

// forwardTarget resolves where a request for g should go when this
// node cannot serve it: a tombstone from a past migration wins,
// otherwise route via the static home's registry.
func (c *Controller) forwardTarget(g mem.GPage) (mem.NodeID, bool) {
	if dst, ok := c.migratedTo[g]; ok {
		return dst, true
	}
	return 0, false
}

// recordTraffic counts one home-side request from src against page g.
func (c *Controller) recordTraffic(g mem.GPage, src mem.NodeID) {
	if c.pageTraffic == nil {
		c.pageTraffic = make(map[lineKey][]uint32)
	}
	k := pageKey(g)
	t := c.pageTraffic[k]
	if t == nil {
		t = make([]uint32, c.net.Nodes())
		c.pageTraffic[k] = t
	}
	t[src]++
}

// PageTraffic is one page's per-node coherence traffic at its home.
type PageTraffic struct {
	Page   mem.GPage
	Total  uint64
	ByNode []uint32
}

// HotPages returns pages whose total remote traffic is at least
// minTotal, hottest first (deterministic order).
func (c *Controller) HotPages(minTotal uint64) []PageTraffic {
	var out []PageTraffic
	for k, t := range c.pageTraffic {
		pt := PageTraffic{Page: k.page(), ByNode: t}
		for n, v := range t {
			if mem.NodeID(n) != c.node {
				pt.Total += uint64(v)
			}
		}
		if pt.Total >= minTotal {
			out = append(out, pt)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Page.Seg != out[j].Page.Seg {
			return out[i].Page.Seg < out[j].Page.Seg
		}
		return out[i].Page.Page < out[j].Page.Page
	})
	return out
}

// ResetTraffic clears the migration counters.
func (c *Controller) ResetTraffic() { c.pageTraffic = nil }

// SetClientTags sets frame f's fine-grain tags from the directory
// snapshot when a home demotes to a client during migration: Exclusive
// where this node owns the line, Shared where it is a sharer, Invalid
// elsewhere (its memory copy is no longer authoritative).
func (c *Controller) SetClientTags(f mem.FrameID, lines []directory.Line) {
	ent := c.PIT.Entry(f)
	if ent == nil || ent.Mode != pit.ModeSCOMA {
		panic(fmt.Sprintf("coherence: node %d: SetClientTags on non-S-COMA frame %d", c.node, f))
	}
	for ln := range lines {
		l := &lines[ln]
		switch {
		case l.Excl && l.Owner == c.node:
			c.PIT.SetTag(f, ln, pit.TagExclusive)
			ent.Dirty[ln] = true // conservatively flush on recall
		case !l.Excl && l.IsSharer(c.node):
			c.PIT.SetTag(f, ln, pit.TagShared)
			ent.Dirty[ln] = false
		default:
			c.PIT.SetTag(f, ln, pit.TagInvalid)
			ent.Dirty[ln] = false
		}
	}
}

// Local exposes the node hardware interface (used by the kernel's
// migration path to invalidate a replaced imaginary frame).
func (c *Controller) Local() Local { return c.local }

// SetHomeTags sets frame f's fine-grain tags from the directory view
// dir after a migration: Exclusive where this node owns the line,
// Shared where it is a sharer or the line is home-memory-current, and
// Invalid where another node holds it exclusively. Shared lines also
// gain this node's sharer bit (its memory now backs them).
func (c *Controller) SetHomeTags(f mem.FrameID, lines []directory.Line) {
	ent := c.PIT.Entry(f)
	if ent == nil || ent.Mode != pit.ModeSCOMA {
		panic(fmt.Sprintf("coherence: node %d: SetHomeTags on non-S-COMA frame %d", c.node, f))
	}
	for ln := range lines {
		l := &lines[ln]
		switch {
		case l.Excl && l.Owner == c.node:
			c.PIT.SetTag(f, ln, pit.TagExclusive)
		case l.Excl:
			c.PIT.SetTag(f, ln, pit.TagInvalid)
		default:
			c.PIT.SetTag(f, ln, pit.TagShared)
			l.AddSharer(c.node)
		}
		ent.Dirty[ln] = false
	}
}
