// The committed-golden gates. results_scale.csv is the committed
// 64-node sweep of the three traffic-shaped workloads under SCOMA and
// Dyn-LRU (see EXPERIMENTS.md "Datacenter-scale sweeps" for the
// generating command). Three properties are enforced:
//
//  1. The committed rows show real page-cache pressure — every Dyn-LRU
//     cell evicts client pages — so the capped policies are actually
//     being exercised at scale, not idling under a too-small working
//     set.
//  2. A fresh dc64 sweep reproduces the committed rows byte-for-byte
//     (the same determinism contract results_ci.csv enforces at ci
//     size).
//  3. results_ci.csv keeps the paper's Figure 7 shapes: LANUMA is
//     slower than SCOMA on every app, and SCOMA-70 beats LANUMA on the
//     capacity-bound apps.
package prism_test

import (
	"strconv"
	"strings"
	"testing"

	"prism/internal/harness"
	"prism/workloads"
)

const (
	scaleCSV = "results_scale.csv"
	ciCSV    = "results_ci.csv"
)

// scaleApps mirrors the sweep results_scale.csv was generated from.
var scaleApps = []string{
	"kv:keys=8192;ops=128;shards=32",
	"pubsub:rounds=2;topics=64",
	"zipf:ops=512;pages=512",
}

// TestScaleGoldenPressure audits the committed rows without running
// anything: all six cells present, and every Dyn-LRU cell shows
// page-cache evictions (page_outs > 0) with imaginary frames allocated.
func TestScaleGoldenPressure(t *testing.T) {
	rows, err := harness.ReadCSV(scaleCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range scaleApps {
		for _, pol := range []string{"SCOMA", "Dyn-LRU"} {
			line, ok := rows[app+","+pol]
			if !ok {
				t.Errorf("%s missing cell %s/%s", scaleCSV, app, pol)
				continue
			}
			if pol != "Dyn-LRU" {
				continue
			}
			row := strings.Split(line, ",")
			pageOuts, err := strconv.Atoi(row[4])
			if err != nil {
				t.Errorf("%s/%s: bad page_outs %q", app, pol, row[4])
				continue
			}
			imag, err := strconv.Atoi(row[6])
			if err != nil {
				t.Errorf("%s/%s: bad imag_frames %q", app, pol, row[6])
				continue
			}
			if pageOuts == 0 || imag == 0 {
				t.Errorf("%s/%s: no page-cache pressure (page_outs=%d imag_frames=%d); retune the workload parameters",
					app, pol, pageOuts, imag)
			}
		}
	}
}

// TestScaleSweepMatchesGolden reruns the dc64 sweep and verifies every
// row against the committed reference.
func TestScaleSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dc64 sweep in -short mode")
	}
	runs, err := harness.Run(harness.Options{Spec: harness.Spec{
		Size:     workloads.DC64Size.String(),
		Apps:     scaleApps,
		Policies: []string{"SCOMA", "Dyn-LRU"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.VerifyAgainstFile(runs, scaleCSV); err != nil {
		t.Fatal(err)
	}
}

// TestFig7GoldenShapes audits the committed ci sweep against the
// paper's Figure 7 shapes without running anything: LANUMA is slower
// than SCOMA on all eight apps, and SCOMA-70 beats LANUMA on the
// capacity-bound apps (barnes, lu, ocean, radix).
func TestFig7GoldenShapes(t *testing.T) {
	rows, err := harness.ReadCSV(ciCSV)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(app, pol string) uint64 {
		t.Helper()
		line, ok := rows[app+","+pol]
		if !ok {
			t.Fatalf("%s missing cell %s/%s", ciCSV, app, pol)
		}
		row := strings.Split(line, ",")
		c, err := strconv.ParseUint(row[2], 10, 64)
		if err != nil {
			t.Fatalf("%s/%s: bad cycles %q", app, pol, row[2])
		}
		return c
	}
	for _, app := range workloads.Names() {
		if la, sc := cycles(app, "LANUMA"), cycles(app, "SCOMA"); la <= sc {
			t.Errorf("%s: LANUMA %d cycles not slower than SCOMA %d", app, la, sc)
		}
	}
	for _, app := range []string{"barnes", "lu", "ocean", "radix"} {
		if s70, la := cycles(app, "SCOMA-70"), cycles(app, "LANUMA"); s70 >= la {
			t.Errorf("%s: SCOMA-70 %d cycles does not beat LANUMA %d", app, s70, la)
		}
	}
}
