package latency

import (
	"math"
	"testing"

	"prism/internal/core"
)

// tolerance is the largest relative distance from the paper that any
// Table 1 row may show (EXPERIMENTS.md "Table 1").
const tolerance = 0.12

// TestMeasureRuns measures Table 1 and holds every row within
// tolerance of the paper's value.
func TestMeasureRuns(t *testing.T) {
	rows, err := Measure(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", Format(rows))
	for _, r := range rows {
		if r.Measured == 0 {
			t.Errorf("%s: zero measurement", r.Name)
			continue
		}
		if dev := math.Abs(float64(r.Measured)/float64(r.Paper) - 1); dev > tolerance {
			t.Errorf("%s: measured %d vs paper %d, %.1f%% off (limit %.0f%%)",
				r.Name, r.Measured, r.Paper, 100*dev, 100*tolerance)
		}
	}
}
