package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"prism/internal/metrics"
)

// metricsOpts is a one-app, two-policy sweep small enough to run twice.
func metricsOpts(dir string) Options {
	return Options{
		Spec:       Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA", "Dyn-LRU"}},
		MetricsDir: dir,
	}
}

// TestMetricsExportDeterministic is the acceptance gate for the
// telemetry subsystem: two identical sweeps produce byte-identical
// export files, and prismstat-style Diff reports zero changed metrics.
func TestMetricsExportDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Run(metricsOpts(dirA)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(metricsOpts(dirB)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fft_SCOMA.json", "fft_Dyn-LRU.json"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: exports differ between identical runs", name)
		}
		ea, err := metrics.ReadExportFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		eb, err := metrics.ReadExportFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if ch := metrics.Changed(metrics.Diff(ea, eb, nil)); len(ch) != 0 {
			t.Errorf("%s: diff of identical runs reports %d deltas, first %+v", name, len(ch), ch[0])
		}
	}
}

// TestMetricsExportDoesNotPerturbResults asserts the sweep CSV is
// byte-identical with metrics export on or off: telemetry is pure
// observation.
func TestMetricsExportDoesNotPerturbResults(t *testing.T) {
	plain, err := Run(metricsOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	exported, err := Run(metricsOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, plain); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, exported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("sweep CSV differs with -metrics on:\n--- off ---\n%s--- on ---\n%s", a.String(), b.String())
	}
}

// TestMetricsExportContents sanity-checks that a real run reports
// through every required component with populated latency histograms.
func TestMetricsExportContents(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(metricsOpts(dir)); err != nil {
		t.Fatal(err)
	}
	e, err := metrics.ReadExportFile(filepath.Join(dir, "fft_SCOMA.json"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Workload != "fft" || e.Policy != "SCOMA" || e.Cycles == 0 {
		t.Errorf("export header: workload=%q policy=%q cycles=%d", e.Workload, e.Policy, e.Cycles)
	}
	comps := map[string]bool{}
	hists := map[string]uint64{}
	for _, p := range e.Points {
		comps[p.Component] = true
		if p.Hist != nil {
			hists[p.Component+"/"+p.Name] += p.Hist.Count
		}
	}
	for _, want := range []string{"network", "cache", "coherence", "directory", "kernel", "sync", "proc", "bus", "pit"} {
		if !comps[want] {
			t.Errorf("component %q missing from export", want)
		}
	}
	if hists["coherence/remote_miss_cycles"] == 0 {
		t.Error("remote-miss latency histogram is empty for fft/SCOMA")
	}
	if hists["kernel/page_fault_cycles"] == 0 {
		t.Error("page-fault latency histogram is empty for fft/SCOMA")
	}
}
