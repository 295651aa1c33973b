package core_test

// The chaos fuzz entry lives in an external test package so it can
// reach internal/testcase (which imports core): a fuzz failure is
// converted into a Case carrying the exact knobs, minimized while the
// failure persists, and written as a .prismcase repro. Move surviving
// repros into testdata/cases/ to pin them as corpus regressions.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prism/internal/harness"
	"prism/internal/testcase"
)

// fuzzPolicies mirrors internal/testcase's chaos configuration: index
// order is part of the fuzz input encoding, so it must not change.
var fuzzPolicies = []string{
	"SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "Dyn-Both",
}

// FuzzChaos is the native fuzz entry over the chaos workload: the
// input picks the seed and the configuration knobs, the run must
// complete without deadlock and pass the global invariant audit.
//
// The seed corpus encodes the cases past chaos runs actually flagged:
//   - Sync-mode (hardware lock) pages under capped policies, where the
//     grant/downgrade race that motivated grant-ack line locking and a
//     lock-handoff deadlock were originally caught;
//   - DRAM-speed PIT (AccessTime 10), which shifts LRU victim timing
//     and once surfaced a stale-victim page-out deadlock dump;
//   - DynBoth reverse conversions combined with tiny page caches.
func FuzzChaos(f *testing.F) {
	f.Add(int64(1), uint8(0), false, false)   // SCOMA baseline
	f.Add(int64(42), uint8(5), true, false)   // Dyn-LRU + Sync-mode pages
	f.Add(int64(777), uint8(3), false, true)  // Dyn-FCFS + DRAM PIT
	f.Add(int64(7), uint8(6), true, true)     // DynBoth + hw sync + slow PIT (past deadlock dump)
	f.Add(int64(1234), uint8(2), true, false) // SCOMA-70 paging + Sync-mode pages
	f.Add(int64(3), uint8(4), false, true)    // Dyn-Util victim timing under DRAM PIT

	f.Fuzz(func(t *testing.T, seed int64, polIdx uint8, hwSync, dramPIT bool) {
		pol := fuzzPolicies[int(polIdx)%len(fuzzPolicies)]
		c := &testcase.Case{
			Name:         fmt.Sprintf("fuzz-chaos-%d-%s", seed, pol),
			Cell:         harness.Cell{App: testcase.ChaosName, Policy: pol},
			Seed:         seed,
			Ops:          400,
			HardwareSync: hwSync,
		}
		if dramPIT {
			c.PITAccess = 10
		}
		if pol == "Dyn-Both" {
			c.DynBothThreshold = 16
		}
		m, w, err := testcase.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := m.Run(w)
		if runErr == nil {
			runErr = m.CheckInvariants()
		}
		if runErr != nil {
			path := emitRepro(t, c)
			t.Fatalf("seed %d %s hwSync=%v dramPIT=%v: %v\nminimized repro: %s", seed, pol, hwSync, dramPIT, runErr, path)
		}
		if res.Refs == 0 {
			t.Fatal("fuzzer did nothing")
		}
	})
}

// emitRepro minimizes the failing case and writes it under
// testdata/failures/ (repo root), returning the path.
func emitRepro(t *testing.T, c *testcase.Case) string {
	t.Helper()
	min := testcase.Minimize(c, testcase.RunFails)
	dir := filepath.Join("..", "..", "testdata", "failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("repro dir: %v", err)
		return "(not written)"
	}
	path := filepath.Join(dir, min.Name+".prismcase")
	if err := testcase.Save(path, min); err != nil {
		t.Logf("repro save: %v", err)
		return "(not written)"
	}
	return path
}
