package main

import (
	"strings"
	"testing"
)

// TestReport pins the example's deterministic output: Sync-mode locks
// finish in fewer cycles than test&set locks while sending more
// messages and taking more remote misses plus upgrades. EXPERIMENTS.md
// quotes these counts.
func TestReport(t *testing.T) {
	var out strings.Builder
	if err := report(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"coherent test&set locks: cycles=2516731    remote+upgrades=5986    msgs=28621\n",
		"Sync-mode page locks:    cycles=2252621    remote+upgrades=7714    msgs=48135\n",
		"Sync-mode vs test&set: 1.12x the speed, 1.68x the messages, 1.29x the remote+upgrades\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
