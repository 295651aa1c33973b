// Package migrate implements run-time home-migration policies on top
// of the kernel's lazy page migration (§3.5 / Baylor et al.): each
// dynamic home's OS periodically inspects the coherence controller's
// per-page traffic counters and migrates pages whose traffic is
// dominated by a single remote node.
package migrate

import (
	"prism/internal/core"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/sim"
)

// Policy decides when a page should move.
type Policy struct {
	// MinTraffic is the minimum remote requests a page must have seen
	// at its home since the last scan to be considered.
	MinTraffic uint64
	// Fraction is the share of the page's remote traffic one node
	// must generate to become the new home (e.g. 0.6).
	Fraction float64
	// MaxPerScan bounds migrations per node per scan.
	MaxPerScan int
}

// DefaultPolicy is a conservative single-dominator policy.
var DefaultPolicy = Policy{MinTraffic: 64, Fraction: 0.6, MaxPerScan: 8}

// Stats counts daemon activity.
type Stats struct {
	Scans      uint64
	Considered uint64
	Requested  uint64
	Errors     uint64
}

// Daemon scans every node's controller at a fixed interval and
// requests migrations through the static homes.
type Daemon struct {
	m        *core.Machine
	pol      Policy
	interval sim.Time
	stopped  bool

	// scanIfActiveFn is bound once in Attach so the per-interval
	// reschedule doesn't allocate a method-value closure every tick.
	scanIfActiveFn func()

	Stats Stats
}

// Attach starts a daemon on machine m scanning every interval cycles.
// Call before Machine.Run; the daemon stops itself when the engine
// drains (its events reschedule only while work remains). The daemon
// reports through the machine's telemetry registry.
func Attach(m *core.Machine, interval sim.Time, pol Policy) *Daemon {
	d := &Daemon{m: m, pol: pol, interval: interval}
	d.scanIfActiveFn = d.scanIfActive
	m.E.Schedule(interval, d.scan)
	m.Metrics.CounterFunc(metrics.MachineScope, "migrate", "scans", func() uint64 { return d.Stats.Scans })
	m.Metrics.CounterFunc(metrics.MachineScope, "migrate", "considered", func() uint64 { return d.Stats.Considered })
	m.Metrics.CounterFunc(metrics.MachineScope, "migrate", "requested", func() uint64 { return d.Stats.Requested })
	m.Metrics.CounterFunc(metrics.MachineScope, "migrate", "errors", func() uint64 { return d.Stats.Errors })
	return d
}

// Stop prevents further scans.
func (d *Daemon) Stop() { d.stopped = true }

// scan inspects all nodes and issues migration requests.
func (d *Daemon) scan() {
	if d.stopped {
		return
	}
	d.Stats.Scans++
	for _, n := range d.m.Nodes {
		moved := 0
		for _, pt := range n.Ctrl.HotPages(d.pol.MinTraffic) {
			if moved >= d.pol.MaxPerScan {
				break
			}
			d.Stats.Considered++
			best, bestV := mem.NodeID(0), uint32(0)
			for nd, v := range pt.ByNode {
				if mem.NodeID(nd) == n.ID {
					continue
				}
				if v > bestV {
					best, bestV = mem.NodeID(nd), v
				}
			}
			if uint64(bestV) < uint64(float64(pt.Total)*d.pol.Fraction) || best == n.ID {
				continue
			}
			static := d.m.Reg.StaticHome(pt.Page)
			err := d.m.Nodes[static].Kern.MigratePage(pt.Page, best, func(sim.Time) {})
			if err != nil {
				d.Stats.Errors++
				continue
			}
			d.Stats.Requested++
			moved++
		}
		n.Ctrl.ResetTraffic()
	}
	// Keep scanning only while processors are live, so the event
	// queue can drain when the run finishes.
	d.m.E.Schedule(d.interval, d.scanIfActiveFn)
}

// scanIfActive re-runs scan while processors are live.
func (d *Daemon) scanIfActive() {
	if d.stopped {
		return
	}
	live := false
	for _, p := range d.m.Procs {
		if !p.Coro().Done() {
			live = true
			break
		}
	}
	if !live {
		return
	}
	d.scan()
}
