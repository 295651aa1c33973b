package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func miniOpts() Options {
	return Options{Spec: Spec{Size: "mini", Apps: []string{"fft", "water-spa"}}}
}

func TestRunSweep(t *testing.T) {
	runs, err := Run(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("apps %d, want 2", len(runs))
	}
	for _, ar := range runs {
		for _, pol := range PolicyOrder {
			res, ok := ar.ByPol[pol]
			if !ok {
				t.Fatalf("%s missing policy %s", ar.App, pol)
			}
			if res.Cycles == 0 {
				t.Errorf("%s/%s: zero cycles", ar.App, pol)
			}
		}
		// SCOMA is the floor (within a small tolerance for adaptive
		// policies that can luck into better placement at mini scale).
		base := ar.ByPol["SCOMA"].Cycles
		for _, pol := range PolicyOrder[1:] {
			if c := ar.ByPol[pol].Cycles; float64(c) < 0.90*float64(base) {
				t.Errorf("%s/%s: %d cycles beats SCOMA %d by >10%%", ar.App, pol, c, base)
			}
		}
		if len(ar.Caps) == 0 {
			t.Errorf("%s: no caps computed", ar.App)
		}
	}
}

func TestFormatting(t *testing.T) {
	runs, err := Run(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"fig7":   FormatFig7(runs),
		"table3": FormatTable3(runs),
		"table4": FormatTable4(runs),
		"table5": FormatTable5(runs),
		"table2": FormatTable2(),
	} {
		if len(s) == 0 {
			t.Errorf("%s: empty output", name)
		}
		if !strings.Contains(s, "fft") && name != "table2" {
			t.Errorf("%s: missing app row:\n%s", name, s)
		}
	}
	f7 := FormatFig7(runs)
	if !strings.Contains(f7, "1.00") {
		t.Errorf("fig7 lacks the normalized SCOMA column:\n%s", f7)
	}
}

func TestTable1(t *testing.T) {
	out, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TLB miss", "573", "In-core page fault"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestPITSweep(t *testing.T) {
	opts := Options{Spec: Spec{Size: "mini", Apps: []string{"fft"}}}
	rows, err := RunPITSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	r := rows[0]
	if r.Slow < r.Fast {
		t.Errorf("DRAM PIT faster than SRAM: %d < %d", r.Slow, r.Fast)
	}
	if r.Increase < 0 || r.Increase > 1 {
		t.Errorf("implausible increase %.3f", r.Increase)
	}
	if s := FormatPITSweep(rows); !strings.Contains(s, "fft") {
		t.Errorf("format missing row:\n%s", s)
	}
}

func TestBadApp(t *testing.T) {
	opts := Options{Spec: Spec{Size: "mini", Apps: []string{"nosuch"}}}
	if _, err := Run(opts); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestSweepCanonicalizesPolicies: policy names are canonicalized before
// the sweep, so "scoma" is the sizing cell rather than a second SCOMA
// run, and every requested policy lands in the CSV.
func TestSweepCanonicalizesPolicies(t *testing.T) {
	var log strings.Builder
	runs, err := Run(Options{
		Spec:    Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"scoma", "lanuma"}},
		Workers: 1,
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(log.String(), "cycles="); n != 2 {
		t.Errorf("ran %d cells, want 2:\n%s", n, log.String())
	}
	csv := CSVString(runs)
	for _, row := range []string{"\nfft,SCOMA,", "\nfft,LANUMA,"} {
		if !strings.Contains(csv, row) {
			t.Errorf("CSV lacks a %q row:\n%s", row[1:], csv)
		}
	}
}

// TestCellConfigRefusesUnsizedCappedCell: a capped cell on a registered
// workload without caps would run uncapped — SCOMA under another
// label — so Config refuses it in one line. Workloads the caller builds
// itself (the chaos fuzzer, synth) are not sized and pass.
func TestCellConfigRefusesUnsizedCappedCell(t *testing.T) {
	_, err := Cell{App: "fft", Policy: "SCOMA-70", Size: "mini"}.Config()
	if err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("unsized fft/SCOMA-70: err %v, want one line", err)
	}
	for _, c := range []Cell{
		{App: "fft", Policy: "SCOMA-70", Size: "mini", Caps: []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{App: "fft", Policy: "LANUMA", Size: "mini"},
		{App: "synth", Policy: "Dyn-LRU"},
	} {
		if _, err := c.Config(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// TestSweepReportsOnlyRequestedPolicies: a sweep without SCOMA still
// runs the SCOMA sizing pass and normalizes Figure 7 to it, but the CSV
// and the telemetry exports hold the requested policy alone.
func TestSweepReportsOnlyRequestedPolicies(t *testing.T) {
	dir := t.TempDir()
	runs, err := Run(Options{
		Spec:       Spec{Size: "mini", Apps: []string{"lu"}, Policies: []string{"Dyn-FCFS"}},
		Workers:    1,
		MetricsDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(CSVString(runs)), "\n")[1:]
	if len(rows) != 1 || !strings.HasPrefix(rows[0], "lu,Dyn-FCFS,") {
		t.Errorf("CSV rows %q, want one lu,Dyn-FCFS row", rows)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	if len(files) != 1 || files[0] != "lu_Dyn-FCFS.json" {
		t.Errorf("metrics exports %v, want [lu_Dyn-FCFS.json]", files)
	}
	ar := runs[0]
	if ar.Sizing.Cycles == 0 {
		t.Fatal("no sizing run recorded")
	}
	want := fmt.Sprintf("%.2f", float64(ar.ByPol["Dyn-FCFS"].Cycles)/float64(ar.Sizing.Cycles))
	if fig := FormatFig7(runs); !strings.Contains(fig, want) {
		t.Errorf("Figure 7 does not normalize Dyn-FCFS to the sizing run (%s):\n%s", want, fig)
	}
}
