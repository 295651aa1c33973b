package workloads

import (
	"testing"
	"time"

	"prism"
)

// TestPerfProbe runs every app under the two static policies at CI
// size and logs wall-clock per cell. The cells run as parallel
// subtests — each owns a private machine and engine, the same
// one-machine-per-goroutine isolation the parallel sweep harness
// relies on, so this doubles as a race-detector probe for it.
func TestPerfProbe(t *testing.T) {
	for _, name := range Names() {
		for _, pol := range []string{"SCOMA", "LANUMA"} {
			name, pol := name, pol
			t.Run(name+"/"+pol, func(t *testing.T) {
				t.Parallel()
				cfg := ConfigForSize(CISize)
				cfg.Policy = prism.MustPolicy(pol)
				m, _ := prism.New(cfg)
				w, _ := NewWorkload(name, CISize, nil)
				start := time.Now()
				res, err := m.Run(w)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, pol, err)
				}
				t.Logf("%-10s %-7s wall=%8v cycles=%12d refs=%10d remote=%8d", name, pol, time.Since(start).Round(time.Millisecond), res.Cycles, res.Refs, res.RemoteMisses)
			})
		}
	}
}
