// Package prism is the public API of the PRISM reproduction: an
// execution-driven simulator of the PRISM scalable shared-memory
// architecture (Ekanadham, Lim, Pattnaik, Snir — HPCA 1998).
//
// PRISM attaches a *mode* to every page frame (Local, S-COMA,
// LA-NUMA, ...) and lets each node's independent kernel pick modes
// per page, dynamically — blending CC-NUMA and S-COMA behaviour. This
// package exposes the machine model, its configuration, the page-mode
// policies of the paper's §4, and the workload interface; the
// workloads package provides the eight SPLASH-style applications.
//
// Quickstart:
//
//	m, err := prism.New(prism.WithPolicy("Dyn-LRU"))
//	...
//	res, err := m.Run(workloads.NewFFT(workloads.CISize))
//	fmt.Println(res)
//
// New takes functional options over the paper's default 32-processor
// machine. A fully built Config is itself an option that replaces the
// configuration wholesale, so the two styles compose:
//
//	m, err := prism.New(workloads.ConfigForSize(sz), prism.WithHardwareSync())
package prism

import (
	"prism/internal/core"
	"prism/internal/fault"
	"prism/internal/mem"
	"prism/internal/migrate"
	"prism/internal/node"
	"prism/internal/policy"
	"prism/internal/sim"
)

// Core types, re-exported.
type (
	// Config describes a machine (nodes, caches, timing, policy). It
	// doubles as an Option: applying it replaces the configuration
	// wholesale, so a Config can seed New with options layered on top.
	Config = core.Config
	// Machine is a wired PRISM system; run workloads with Run.
	Machine = core.Machine
	// Results carries one run's measurements.
	Results = core.Results
	// Ctx is a processor's view of a running workload.
	Ctx = core.Ctx
	// Workload is an application: Setup allocates segments, Run
	// executes on every simulated processor.
	Workload = core.Workload
	// Proc is one simulated processor (Read/Write/Compute/Barrier...).
	Proc = node.Proc
	// VAddr is a virtual address in a workload's address space.
	VAddr = mem.VAddr
	// Time is simulated time in processor cycles.
	Time = sim.Time
	// Policy selects page-frame modes at client page-fault time.
	Policy = policy.Policy

	// Option configures New. Options are applied in order over the
	// paper's default machine.
	Option = core.Option
	// FaultRates holds per-transmission drop/duplicate/delay
	// probabilities for the fault injector (see WithFaults).
	FaultRates = fault.Rates
)

// optionFunc adapts a function to the Option interface.
type optionFunc func(*core.Config) error

func (f optionFunc) ApplyOption(c *core.Config) error { return f(c) }

// New builds a machine. With no options it is the paper's 32-processor
// machine (8 nodes × 4 processors, 4KB pages, 64B lines, 8KB/32KB
// capacity-exposing caches, 120-cycle network) running the S-COMA
// policy; options adjust it:
//
//	m, err := prism.New(
//		prism.WithNodes(8),
//		prism.WithPolicy("Dyn-LRU"),
//		prism.WithFaults(42, prism.FaultRates{Drop: 0.01}),
//		prism.WithHardwareSync(),
//	)
//
// The legacy form New(cfg) still works — a Config is itself an Option
// that replaces the whole configuration — but new code should prefer
// the functional options.
func New(opts ...Option) (*Machine, error) { return core.New(opts...) }

// WithNodes sets the node count (each node keeps its configured
// processors; the default machine is 4 processors per node).
func WithNodes(n int) Option {
	return optionFunc(func(c *core.Config) error {
		c.Nodes = n
		return nil
	})
}

// WithProcsPerNode sets the processor count of every node.
func WithProcsPerNode(p int) Option {
	return optionFunc(func(c *core.Config) error {
		c.Node.Procs = p
		return nil
	})
}

// WithPolicy selects the page-mode policy by name: "SCOMA", "LANUMA",
// "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU".
func WithPolicy(name string) Option {
	return optionFunc(func(c *core.Config) error {
		p, err := policy.ByName(name)
		if err != nil {
			return err
		}
		c.Policy = p
		return nil
	})
}

// WithHardwareSync routes workload locks through Sync-mode pages
// (§3.2): queue locks at the home controller instead of test-and-set
// over coherent lines.
func WithHardwareSync() Option {
	return optionFunc(func(c *core.Config) error {
		c.HardwareSync = true
		return nil
	})
}

// WithPageCacheCaps overrides the per-node page-cache capacity (the
// SCOMA-70 two-pass sizing); caps must have one entry per node.
func WithPageCacheCaps(caps []int) Option {
	return optionFunc(func(c *core.Config) error {
		c.PageCacheCaps = caps
		return nil
	})
}

// WithFaults makes the interconnect lossy: a seeded, deterministic
// fault schedule applies rates to every message class, and the
// network's recovery transport (timeouts, bounded exponential backoff,
// duplicate suppression) repairs the damage so runs still terminate
// with the same results invariants. All-zero rates leave the fabric
// perfect and results byte-identical to a fault-free machine.
func WithFaults(seed int64, rates FaultRates) Option {
	return optionFunc(func(c *core.Config) error {
		c.Faults = &fault.Plan{Seed: seed, Default: rates}
		return nil
	})
}

// WithFaultSpec parses the CLI fault syntax shared by the -faults flag
// ("seed=42,drop=0.02,response.dup=0.01,..."); an empty spec clears
// faults.
func WithFaultSpec(spec string) Option {
	return optionFunc(func(c *core.Config) error {
		plan, err := fault.ParseSpec(spec)
		if err != nil {
			return err
		}
		c.Faults = plan
		return nil
	})
}

// WithConfig applies an arbitrary configuration edit — the escape
// hatch for knobs without a dedicated option (timing, cache geometry,
// kernel tuning).
func WithConfig(mut func(*Config)) Option {
	return optionFunc(func(c *core.Config) error {
		mut(c)
		return nil
	})
}

// PolicyByName returns one of the paper's six policies: "SCOMA",
// "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU".
func PolicyByName(name string) (Policy, error) { return policy.ByName(name) }

// MustPolicy is PolicyByName that panics on error.
func MustPolicy(name string) Policy {
	p, err := policy.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Policies returns all six policies in the paper's Figure 7 order.
func Policies() []Policy { return policy.All() }

// NodeID identifies a node of the machine.
type NodeID = mem.NodeID

// MigrationPolicy parameterizes the run-time home-migration daemon
// (§3.5 / Baylor et al.).
type MigrationPolicy = migrate.Policy

// MigrationDaemon periodically scans the controllers' per-page traffic
// counters and migrates dominated pages.
type MigrationDaemon = migrate.Daemon

// DefaultMigrationPolicy is a conservative single-dominator policy.
var DefaultMigrationPolicy = migrate.DefaultPolicy

// AttachMigration starts a migration daemon on m, scanning every
// interval cycles. Call before Machine.Run.
func AttachMigration(m *Machine, interval Time, pol MigrationPolicy) *MigrationDaemon {
	return migrate.Attach(m, interval, pol)
}
