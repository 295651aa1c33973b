// Package core assembles the full PRISM machine — the paper's primary
// contribution as an integrated system: per-node kernels and coherence
// controllers over a shared interconnect, a global IPC server, the
// page-mode policy plumbing, and the execution-driven run loop that
// carries a workload through setup and a measured parallel phase.
package core

import (
	"fmt"
	"strings"

	"prism/internal/coherence"
	"prism/internal/fault"
	"prism/internal/ipc"
	"prism/internal/kernel"
	"prism/internal/mem"
	"prism/internal/metrics"
	"prism/internal/network"
	"prism/internal/node"
	"prism/internal/pit"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/internal/timing"
)

// Config describes a whole machine.
type Config struct {
	Nodes    int
	Geometry mem.Geometry
	Node     node.Config
	Timing   timing.T
	Net      network.Config
	Kernel   kernel.Config
	// PageCacheCaps optionally overrides Kernel.PageCacheCap per node
	// (the SCOMA-70 two-pass sizing); nil means uniform.
	PageCacheCaps []int
	Policy        policy.Policy
	// HardwareSync routes workload locks through Sync-mode pages
	// (§3.2's synchronization-page frame mode): queue locks at the
	// home controller instead of test-and-set over coherent lines.
	HardwareSync bool
	// Faults optionally makes the interconnect lossy: a seeded,
	// deterministic plan of per-class drop/duplicate/delay faults plus
	// the timeout/retry/backoff tuning of the recovery transport
	// (internal/fault, internal/network). nil — or a plan with all
	// rates zero and nothing scripted — leaves the fabric perfect and
	// the results byte-identical to builds without fault injection.
	Faults *fault.Plan
}

// DefaultConfig is the paper's 32-processor machine: 8 nodes × 4 CPUs,
// 4KB pages, 64B lines, capacity-exposing 8KB/32KB caches.
func DefaultConfig() Config {
	geom := mem.DefaultGeometry
	return Config{
		Nodes:    8,
		Geometry: geom,
		Node:     node.DefaultConfig(geom),
		Timing:   timing.Default(),
		Net:      network.DefaultConfig,
		Kernel:   kernel.Config{RealFrames: 64 << 10}, // 256 MB/node
		Policy:   policy.SCOMA{},
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > mem.MaxNodes {
		return fmt.Errorf("core: node count %d out of range [1,%d]", c.Nodes, mem.MaxNodes)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Node.L1.Validate(); err != nil {
		return fmt.Errorf("core: L1: %w", err)
	}
	if err := c.Node.L2.Validate(); err != nil {
		return fmt.Errorf("core: L2: %w", err)
	}
	if c.Node.L1.LineSize != c.Geometry.LineSize || c.Node.L2.LineSize != c.Geometry.LineSize {
		return fmt.Errorf("core: cache line sizes must match geometry line size %d", c.Geometry.LineSize)
	}
	if c.Node.Procs <= 0 {
		return fmt.Errorf("core: %d processors per node", c.Node.Procs)
	}
	// Every processor owns a private VSID; the global segments are
	// numbered after them. Leave a generous global window inside the
	// 16-bit VSID space.
	if nprocs := c.Nodes * c.Node.Procs; int(privateBase)+nprocs+1 > (1<<16)-1024 {
		return fmt.Errorf("core: %d processors exhaust the 16-bit VSID space", nprocs)
	}
	if c.Policy == nil {
		return fmt.Errorf("core: nil page-mode policy")
	}
	if c.PageCacheCaps != nil && len(c.PageCacheCaps) != c.Nodes {
		return fmt.Errorf("core: PageCacheCaps has %d entries for %d nodes", len(c.PageCacheCaps), c.Nodes)
	}
	if c.Net.Latency == 0 {
		return fmt.Errorf("core: network latency must be positive")
	}
	if c.Net.LinkBytes < 0 {
		return fmt.Errorf("core: network LinkBytes %d is negative", c.Net.LinkBytes)
	}
	if c.Timing.MsgHeader <= 0 {
		return fmt.Errorf("core: timing MsgHeader %d must be positive (it sizes every control message)", c.Timing.MsgHeader)
	}
	if c.Timing.LineBytes <= 0 {
		return fmt.Errorf("core: timing LineBytes %d must be positive (it sizes every data payload)", c.Timing.LineBytes)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Well-known VSIDs. The per-processor private segments occupy
// privateBase..privateBase+nprocs-1; the hardware-sync segment and the
// first global segment come after them. Machines small enough for the
// historical fixed slots (every pre-datacenter configuration) keep the
// legacy numbering so their address streams — and therefore every
// committed golden result — are byte-identical; larger machines shift
// the hardware-sync/global window past their private segments.
const (
	syncVSID    mem.VSID = 1
	privateBase mem.VSID = 2

	legacyHWSyncVSID mem.VSID = 63
	legacyGlobalBase mem.VSID = 64
)

// vsidLayout returns the hardware-sync VSID and the first global VSID
// for a machine with nprocs processors.
func vsidLayout(nprocs int) (hwSync, globalBase mem.VSID) {
	if privateBase+mem.VSID(nprocs) <= legacyHWSyncVSID {
		return legacyHWSyncVSID, legacyGlobalBase
	}
	hw := privateBase + mem.VSID(nprocs)
	return hw, hw + 1
}

// Internal barrier ids reserved by the measurement protocol.
const (
	barrierBeginA = maxUserBarrier + 1
	barrierBeginB = maxUserBarrier + 2
	barrierEndA   = maxUserBarrier + 3
	// maxUserBarrier bounds workload barrier ids.
	maxUserBarrier = 1 << 10
)

// Machine is a fully wired PRISM system.
type Machine struct {
	Cfg   Config
	E     *sim.Engine
	Net   *network.Network
	Reg   *ipc.Registry
	Nodes []*node.Node
	Procs []*node.Proc
	Sync  *node.SyncDomain

	// Metrics is the machine's telemetry registry: every component
	// registers its counters, gauges and latency histograms here at
	// build time. Reading it never perturbs the simulation.
	Metrics *metrics.Registry

	nextGlobal mem.VSID
	hwVSID     mem.VSID
	tm         timing.T

	sampler      *metrics.Sampler
	samplerEvery sim.Time
	measuring    bool
	phaseStart   sim.Time
	phaseEnd     sim.Time

	// Checkpoint/restore bookkeeping (core/checkpoint.go): the snapshot
	// most recently captured or restored on this machine, and the
	// restored trigger processor Resume must continue synchronously.
	lastSnap     *MachineSnapshot
	ckptTrigger  int
	ckptRestored bool
}

// NewMachine builds and wires a machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hwVSID, globalBase := vsidLayout(cfg.Nodes * cfg.Node.Procs)
	m := &Machine{Cfg: cfg, tm: cfg.Timing, nextGlobal: globalBase, hwVSID: hwVSID}
	m.E = sim.NewEngine()
	m.Metrics = metrics.NewRegistry()
	m.Net = network.New(m.E, cfg.Nodes, cfg.Net)
	m.Net.EnableFaults(cfg.Faults)
	m.Reg = ipc.NewRegistry(cfg.Geometry, cfg.Nodes)

	// One machine = one engine = one goroutine, so every controller can
	// share a single set of message pools. Sharing matters: protocol
	// flows are directional (clients send Gets, homes retire them), so
	// per-controller pools would fill on one side and stay empty on the
	// other.
	pools := coherence.NewMsgPools()
	for i := 0; i < cfg.Nodes; i++ {
		kc := cfg.Kernel
		if cfg.PageCacheCaps != nil {
			kc.PageCacheCap = cfg.PageCacheCaps[i]
		}
		k := kernel.New(m.E, mem.NodeID(i), cfg.Geometry, &m.tm, kc, m.Reg, m.Net, cfg.Policy)
		n := node.New(m.E, mem.NodeID(i), cfg.Geometry, &m.tm, cfg.Node, m.Net, m.Reg, k)
		n.Ctrl.UsePools(pools)
		m.Net.Attach(mem.NodeID(i), n)
		n.RegisterMetrics(m.Metrics)
		m.Nodes = append(m.Nodes, n)
		m.Procs = append(m.Procs, n.Procs...)
	}
	m.Net.RegisterMetrics(m.Metrics)

	// Private segments: one per processor, attached on its node only.
	for i, p := range m.Procs {
		p.Node().Kern.AttachPrivate(privateBase + mem.VSID(i))
	}

	// The sync segment backs machine-wide locks and barriers.
	seg, err := m.Reg.Shmget("__sync", node.SyncSegmentBytes(cfg.Geometry))
	if err != nil {
		return nil, err
	}
	for _, n := range m.Nodes {
		if err := n.Kern.AttachGlobal(syncVSID, seg.GSID); err != nil {
			return nil, err
		}
	}
	m.Sync = node.NewSyncDomain(m.E, &m.tm, cfg.Geometry, len(m.Procs), mem.NewVAddr(syncVSID, 0))
	m.Sync.RegisterMetrics(m.Metrics)
	for _, p := range m.Procs {
		p.Sync = m.Sync
	}

	if cfg.HardwareSync {
		// Locks live on Sync-mode pages: a dedicated segment whose
		// pages every kernel pins to ModeSync before first touch.
		hwBytes := uint64(node.HWLockSegmentBytes(cfg.Geometry))
		hseg, err := m.Reg.Shmget("__hwsync", hwBytes)
		if err != nil {
			return nil, err
		}
		pages := hseg.Pages(cfg.Geometry)
		for _, n := range m.Nodes {
			if err := n.Kern.AttachGlobal(m.hwVSID, hseg.GSID); err != nil {
				return nil, err
			}
			for pg := 0; pg < pages; pg++ {
				n.Kern.SetPageMode(mem.GPage{Seg: hseg.GSID, Page: uint32(pg)}, pit.ModeSync)
			}
		}
		m.Sync.EnableHardwareLocks(mem.NewVAddr(m.hwVSID, 0))
	}
	return m, nil
}

// NumProcs returns the total processor count.
func (m *Machine) NumProcs() int { return len(m.Procs) }

// SetTracer installs a reference tracer on every processor (nil
// clears). Tracing is pure observation: it does not perturb timing.
func (m *Machine) SetTracer(t node.Tracer) {
	for _, p := range m.Procs {
		p.SetTracer(t)
	}
}

// Alloc creates (or finds) the global segment named name, attaches it
// at every node under a fresh VSID at identical offsets (the loader
// convention of §3.3), and returns its base virtual address.
func (m *Machine) Alloc(name string, bytes uint64) (mem.VAddr, error) {
	seg, err := m.Reg.Shmget(name, bytes)
	if err != nil {
		return 0, err
	}
	vsid := m.nextGlobal
	m.nextGlobal++
	for _, n := range m.Nodes {
		if err := n.Kern.AttachGlobal(vsid, seg.GSID); err != nil {
			return 0, err
		}
	}
	return mem.NewVAddr(vsid, 0), nil
}

// MustAlloc is Alloc that panics on error (workload setup).
func (m *Machine) MustAlloc(name string, bytes uint64) mem.VAddr {
	a, err := m.Alloc(name, bytes)
	if err != nil {
		panic(err)
	}
	return a
}

// Ctx is a processor's view of a running workload.
type Ctx struct {
	P  *node.Proc
	ID int // processor index, 0..N-1
	N  int // total processors
	m  *Machine
}

// PrivateBase returns the base of this processor's node-private
// segment (Local-mode frames).
func (c *Ctx) PrivateBase() mem.VAddr {
	return mem.NewVAddr(privateBase+mem.VSID(c.ID), 0)
}

// BeginParallel marks the start of the measured parallel phase. All
// processors must call it; statistics reset inside the double barrier
// so no pre-phase traffic leaks into the measurement.
func (c *Ctx) BeginParallel() {
	c.P.Barrier(barrierBeginA)
	if c.ID == 0 {
		c.m.resetStats()
		c.m.phaseStart = c.P.Now()
		c.m.measuring = true
	}
	c.P.Barrier(barrierBeginB)
}

// EndParallel marks the end of the measured phase.
func (c *Ctx) EndParallel() {
	c.P.Barrier(barrierEndA)
	if c.ID == 0 {
		c.m.phaseEnd = c.P.Now()
		c.m.measuring = false
	}
}

// Workload is an application run on the machine: Setup allocates its
// global segments; Run executes on every processor's coroutine.
type Workload interface {
	Name() string
	Setup(m *Machine) error
	Run(ctx *Ctx)
}

// resetStats clears every measurement counter across the machine by
// delegating to each component's ResetStats. The contract is uniform:
// measurement counters clear, structural state (frame accounting,
// cache lines, PIT/directory entries, lock and barrier state, resource
// horizons) persists, so a reset mid-run never perturbs the simulation.
func (m *Machine) resetStats() {
	for _, n := range m.Nodes {
		n.ResetStats()
	}
	m.Net.ResetStats()
	m.Sync.ResetStats()
}

// SampleMetrics attaches an interval sampler that snapshots every
// scalar instrument each `every` cycles of simulated time while any
// processor is still running. Call before Run; the samples appear in
// ExportMetrics output.
func (m *Machine) SampleMetrics(every sim.Time) {
	m.samplerEvery = every
	m.sampler = metrics.AttachSampler(m.E, m.Metrics, every, func() bool {
		for _, p := range m.Procs {
			if !p.Coro().Done() {
				return true
			}
		}
		return false
	})
}

// ExportMetrics captures the registry's final state (and any interval
// samples) as a serializable export. Call after Run.
func (m *Machine) ExportMetrics(workload, policyName string) *metrics.Export {
	e := &metrics.Export{
		Schema:   metrics.Schema,
		Workload: workload,
		Policy:   policyName,
		Cycles:   uint64(m.phaseEnd - m.phaseStart),
		Points:   m.Metrics.Snapshot(),
	}
	if m.sampler != nil {
		e.Samples = m.sampler.Samples
	}
	return e
}

// Run executes the workload to completion and returns the results.
// The simulation is deterministic: identical configs and workloads
// produce identical results.
func (m *Machine) Run(w Workload) (Results, error) {
	defer m.stopProcs()
	if err := w.Setup(m); err != nil {
		return Results{}, fmt.Errorf("core: %s setup: %w", w.Name(), err)
	}
	for i, p := range m.Procs {
		ctx := &Ctx{P: p, ID: i, N: len(m.Procs), m: m}
		p.Coro().Start(func() { w.Run(ctx) })
		m.E.ScheduleStep(0, p.Coro())
	}
	m.E.RunUntilIdle()

	var blocked []string
	for _, p := range m.Procs {
		if !p.Coro().Done() {
			blocked = append(blocked, p.Coro().Label)
		}
	}
	if len(blocked) > 0 {
		var dump strings.Builder
		for _, n := range m.Nodes {
			dump.WriteString(n.Ctrl.DebugState())
		}
		return Results{}, fmt.Errorf("core: deadlock at t=%d with empty event queue; blocked: %v\n%s", m.E.Now(), blocked, dump.String())
	}
	if m.phaseEnd == 0 {
		// The workload never marked a parallel phase: measure the
		// whole run.
		m.phaseEnd = m.maxProcTime()
	}
	return m.collect(w), nil
}

// stopProcs stops every processor coroutine still parked, so a run
// that panicked or deadlocked releases their goroutines, and with them
// the machine, instead of leaving them parked for good.
func (m *Machine) stopProcs() {
	for _, p := range m.Procs {
		p.Coro().Stop()
	}
}

func (m *Machine) maxProcTime() sim.Time {
	var t sim.Time
	for _, p := range m.Procs {
		if p.Now() > t {
			t = p.Now()
		}
	}
	return t
}
