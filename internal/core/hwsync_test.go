package core

import (
	"testing"

	"prism/internal/policy"
)

// hwLockConfig builds a machine with hardware sync pages enabled.
func hwLockConfig() Config {
	cfg := testConfig()
	cfg.Policy = policy.SCOMA{}
	cfg.HardwareSync = true
	return cfg
}

func TestHardwareLocksMutualExclusion(t *testing.T) {
	m, err := NewMachine(hwLockConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := &lockWL{}
	if _, err := m.Run(w); err != nil {
		t.Fatal(err)
	}
	want := w.rounds * len(m.Procs)
	if w.counter != want {
		t.Fatalf("counter %d, want %d (lost updates under hw locks)", w.counter, want)
	}
	var acquires, handoffs uint64
	for _, n := range m.Nodes {
		acquires += n.Ctrl.SyncStats.Acquires
		handoffs += n.Ctrl.SyncStats.Handoffs
	}
	if acquires == 0 {
		t.Fatal("no hardware lock grants recorded")
	}
	if handoffs == 0 {
		t.Fatal("contended workload produced no direct handoffs")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareLocksDeterminism(t *testing.T) {
	run := func() Results {
		m, _ := NewMachine(hwLockConfig())
		res, err := m.Run(&lockWL{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.NetMessages != b.NetMessages {
		t.Fatalf("nondeterministic hw locks: %d/%d vs %d/%d", a.Cycles, a.NetMessages, b.Cycles, b.NetMessages)
	}
}

func TestHardwareLockTrafficTradeoff(t *testing.T) {
	run := func(hw bool) Results {
		cfg := testConfig()
		cfg.Policy = policy.SCOMA{}
		cfg.HardwareSync = hw
		m, _ := NewMachine(cfg)
		res, err := m.Run(&lockWL{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sw := run(false)
	hw := run(true)
	// Both flavors must be functionally correct; the performance
	// comparison is informational. At this machine size (8 processors,
	// 2 per node) the coherent test-and-test&set lock benefits from
	// same-node handoff batching, while the queue lock sends a
	// lock_req, a lock_grant and an unlock through the home on every
	// acquire, even a same-node handoff. Nor does it remove the
	// invalidation storm: in examples/syncpages at ci size (3,840
	// acquires) inv falls only 3,455 → 3,356, while get rises
	// 5,980 → 7,708 and recall 1,866 → 3,370. The run reports both so
	// the trade-off is visible.
	if hw.Cycles == 0 || sw.Cycles == 0 {
		t.Fatal("missing results")
	}
	swCoherence := sw.RemoteMisses + sw.Upgrades
	hwCoherence := hw.RemoteMisses + hw.Upgrades
	t.Logf("sw: %d cycles, %d coherence ops, %d msgs; hw: %d cycles, %d coherence ops, %d msgs",
		sw.Cycles, swCoherence, sw.NetMessages, hw.Cycles, hwCoherence, hw.NetMessages)
}

func TestHardwareLocksUnderFuzz(t *testing.T) {
	cfg := hwLockConfig()
	cfg.Node.L1.Size = 1 << 10
	cfg.Node.L2.Size = 2 << 10
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ChaosWorkload(5)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
