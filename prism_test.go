// Public-API tests: everything a downstream user touches must work
// through the prism package alone.
package prism_test

import (
	"strings"
	"testing"

	"prism"
	"prism/workloads"
)

func TestDefaultConfigIsPaperMachine(t *testing.T) {
	// New with no options builds the default machine; WithConfig sees
	// its configuration.
	var cfg prism.Config
	if _, err := prism.New(prism.WithConfig(func(c *prism.Config) { cfg = *c })); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 8 || cfg.Node.Procs != 4 {
		t.Fatalf("machine %dx%d, want 8x4", cfg.Nodes, cfg.Node.Procs)
	}
	if cfg.Geometry.PageSize != 4096 {
		t.Fatalf("page size %d, want 4096", cfg.Geometry.PageSize)
	}
	if cfg.Net.Latency != 120 {
		t.Fatalf("network latency %d, want 120", cfg.Net.Latency)
	}
	if cfg.Timing.TLBMiss != 30 || cfg.Timing.L2Hit != 12 {
		t.Fatalf("timing %d/%d, want 30/12", cfg.Timing.TLBMiss, cfg.Timing.L2Hit)
	}
}

func TestPolicyRegistry(t *testing.T) {
	pols := prism.Policies()
	if len(pols) != 6 {
		t.Fatalf("policies %d, want the paper's 6", len(pols))
	}
	for _, p := range pols {
		got, err := prism.PolicyByName(p.Name())
		if err != nil || got.Name() != p.Name() {
			t.Errorf("round trip %s: %v", p.Name(), err)
		}
	}
	if _, err := prism.PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPolicy on bad name did not panic")
		}
	}()
	prism.MustPolicy("nope")
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	cfg.Policy = prism.MustPolicy("Dyn-FCFS")
	m, err := prism.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(workloads.NewWaterSpa(workloads.MiniSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "water-spa" || res.Policy != "Dyn-FCFS" {
		t.Fatalf("labels %q/%q", res.Workload, res.Policy)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"cycles", "remote misses", "utilization"} {
		if !strings.Contains(s, want) {
			t.Errorf("results text missing %q:\n%s", want, s)
		}
	}
}

// TestFunctionalOptions covers the options constructor: defaults, each
// option, composition with a seeding Config, and error propagation.
func TestFunctionalOptions(t *testing.T) {
	// Zero options = the paper's default machine.
	m, err := prism.New()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Nodes != 8 || m.Cfg.Policy.Name() != "SCOMA" {
		t.Fatalf("default machine %d nodes / %s", m.Cfg.Nodes, m.Cfg.Policy.Name())
	}

	m, err = prism.New(
		prism.WithNodes(4),
		prism.WithProcsPerNode(2),
		prism.WithPolicy("Dyn-LRU"),
		prism.WithPageCacheCaps([]int{2, 2, 2, 2}),
		prism.WithHardwareSync(),
		prism.WithFaults(42, prism.FaultRates{Drop: 0.01}),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Cfg
	if cfg.Nodes != 4 || cfg.Node.Procs != 2 || cfg.Policy.Name() != "Dyn-LRU" || !cfg.HardwareSync {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if cfg.Faults == nil || cfg.Faults.Seed != 42 || cfg.Faults.Default.Drop != 0.01 {
		t.Fatalf("fault option not applied: %+v", cfg.Faults)
	}

	// A Config seeds the construction; later options override it.
	base := workloads.ConfigForSize(workloads.MiniSize)
	m, err = prism.New(base, prism.WithPolicy("LANUMA"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Nodes != base.Nodes || m.Cfg.Policy.Name() != "LANUMA" {
		t.Fatalf("config-as-option composition broke: %+v", m.Cfg)
	}

	// Errors surface from option application and from validation.
	if _, err := prism.New(prism.WithPolicy("nope")); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := prism.New(prism.WithFaults(1, prism.FaultRates{Drop: 3})); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
	if _, err := prism.New(prism.WithFaultSpec("drop=nope")); err == nil {
		t.Error("malformed fault spec accepted")
	}
	if _, err := prism.New(prism.WithNodes(0)); err == nil {
		t.Error("zero nodes accepted")
	}
}

// TestOptionsEndToEnd runs a real workload through the options form,
// including a lossy fabric, and audits the result.
func TestOptionsEndToEnd(t *testing.T) {
	m, err := prism.New(
		workloads.ConfigForSize(workloads.MiniSize),
		prism.WithPolicy("Dyn-FCFS"),
		prism.WithFaultSpec("seed=7,drop=0.02,dup=0.02"),
		prism.WithConfig(func(c *prism.Config) { c.HardwareSync = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(workloads.NewWaterSpa(workloads.MiniSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationThroughPublicAPI(t *testing.T) {
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	cfg.Policy = prism.MustPolicy("LANUMA")
	m, err := prism.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := prism.AttachMigration(m, 30_000, prism.DefaultMigrationPolicy)
	sc := workloads.DefaultSynthConfig()
	sc.Iters = 2
	sc.OpsPerIter = 800
	if _, err := m.Run(workloads.NewSynth(sc)); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Scans == 0 {
		t.Error("daemon attached through public API never ran")
	}
}
