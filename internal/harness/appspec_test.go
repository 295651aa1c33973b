package harness

// The app-spec grammar gate: one parser, one canonical spelling, and
// sweeps that are byte-identical across -j worker counts when driven
// through parameterized specs.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"prism/workloads"
)

func TestSplitAppSpec(t *testing.T) {
	good := []struct {
		spec string
		name string
		want workloads.Params
	}{
		{"kv", "kv", nil},
		{" FFT ", "FFT", nil},
		{"kv:keys=100", "kv", workloads.Params{"keys": "100"}},
		{"kv:keys=100,ops=5", "kv", workloads.Params{"keys": "100", "ops": "5"}},
		{"kv:keys=100;ops=5", "kv", workloads.Params{"keys": "100", "ops": "5"}},
		{"kv: KEYS = 100 , ops=5", "kv", workloads.Params{"keys": "100", "ops": "5"}},
	}
	for _, tc := range good {
		name, params, err := SplitAppSpec(tc.spec)
		if err != nil {
			t.Errorf("SplitAppSpec(%q): %v", tc.spec, err)
			continue
		}
		if name != tc.name || fmt.Sprint(params) != fmt.Sprint(tc.want) {
			t.Errorf("SplitAppSpec(%q) = %q %v, want %q %v", tc.spec, name, params, tc.name, tc.want)
		}
	}
	bad := []string{"", "  ", ":keys=1", "kv:", "kv:keys", "kv:=1", "kv:keys=", "kv:keys=1,keys=2"}
	for _, spec := range bad {
		if _, _, err := SplitAppSpec(spec); err == nil {
			t.Errorf("SplitAppSpec(%q) accepted", spec)
		}
	}
}

func TestCanonicalAppSpec(t *testing.T) {
	good := map[string]string{
		"fft":                      "fft",
		"FFT":                      "fft",
		"Water-Nsq":                "water-nsq",
		"waternsq":                 "water-nsq",
		"kv":                       "kv",
		"kv:shards=64":             "kv", // default-valued override drops out
		"kv:ops=64,keys=100":       "kv:keys=100;ops=64",
		"kv:keys=100;ops=64":       "kv:keys=100;ops=64",
		"ZIPFFE:rounds=2,zipf=1.1": "zipf:zipf=1.1",
	}
	for spec, want := range good {
		got, err := CanonicalAppSpec(spec)
		if err != nil {
			t.Errorf("CanonicalAppSpec(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("CanonicalAppSpec(%q) = %q, want %q", spec, got, want)
		}
	}
	if _, err := CanonicalAppSpec("nosuch:x=1"); !errors.Is(err, workloads.ErrUnknownWorkload) {
		t.Errorf("unknown workload: got %v", err)
	}
	if _, err := CanonicalAppSpec("kv:bogus=1"); !errors.Is(err, workloads.ErrUnknownParam) {
		t.Errorf("unknown param: got %v", err)
	}
	if _, err := CanonicalAppSpec("fft:shards=4"); !errors.Is(err, workloads.ErrUnknownParam) {
		t.Errorf("param on parameterless workload: got %v", err)
	}
}

func TestSpecFileName(t *testing.T) {
	if got := SpecFileName("kv:keys=8192;ops=64"); got != "kv-keys-8192+ops-64" {
		t.Errorf("SpecFileName = %q", got)
	}
}

// trafficSweepCSV runs the three traffic workloads (with reduced
// parameters, spelled non-canonically on purpose) through a full
// sweep and returns the CSV.
func trafficSweepCSV(t *testing.T, workers int) string {
	t.Helper()
	runs, err := Run(Options{
		Spec: Spec{
			Size: "mini",
			Apps: []string{
				"kv:ops=128,keys=8192,shards=32",
				"pubsub:rounds=2,topics=64",
				"ZIPFFE:pages=512,ops=512",
			},
			Policies: []string{"SCOMA", "Dyn-LRU"},
		},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return CSVString(runs)
}

// TestTrafficSweepWorkerRepeatability: sweeps over parameterized app
// specs emit byte-identical CSV at any -j width, and the rows carry
// the canonical spec labels.
func TestTrafficSweepWorkerRepeatability(t *testing.T) {
	want := trafficSweepCSV(t, 1)
	for _, label := range []string{
		"kv:keys=8192;ops=128;shards=32,SCOMA,",
		"pubsub:rounds=2;topics=64,Dyn-LRU,",
		"zipf:ops=512;pages=512,SCOMA,",
	} {
		if !strings.Contains(want, "\n"+label) {
			t.Fatalf("CSV missing canonical row %q:\n%s", label, want)
		}
	}
	for _, workers := range []int{2, 4} {
		if got := trafficSweepCSV(t, workers); got != want {
			t.Errorf("-j %d sweep CSV diverged:\nwant:\n%s\ngot:\n%s", workers, want, got)
		}
	}
}

// TestSweepBadSpecFails: a malformed or unknown spec aborts the sweep
// with the registry's error, not a silent skip.
func TestSweepBadSpecFails(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(Options{
		Spec:    Spec{Size: "mini", Apps: []string{"kv:bogus=1"}, Policies: []string{"SCOMA"}},
		Workers: 1,
		Log:     &buf,
	})
	if !errors.Is(err, workloads.ErrUnknownParam) {
		t.Fatalf("got %v, want ErrUnknownParam", err)
	}
}
