package harness

// Sweeps over app specs: canonical row labels, byte-identical across
// -j worker counts, and normalizing that builds no workload.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"prism"
	"prism/workloads"
)

// builds counts the constructions of the "normalize-counter" workload,
// registered for TestNormalizeBuildsNothing.
var builds int

func init() {
	workloads.Register(workloads.Descriptor{
		Name:   "normalize-counter",
		Params: []workloads.Param{workloads.Count("ops", 4)},
		New: func(workloads.Size, workloads.App) prism.Workload {
			builds++
			return nil
		},
	})
}

// TestNormalizeBuildsNothing: normalizing a spec parses and checks
// its apps without constructing a workload.
func TestNormalizeBuildsNothing(t *testing.T) {
	builds = 0
	s := Spec{Size: "mini", Apps: []string{"Normalize-Counter:ops=004"}, Policies: []string{"SCOMA"}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if builds != 0 || s.Apps[0] != "normalize-counter" {
		t.Errorf("Normalize built %d workloads and spelled the app %q; want 0 and normalize-counter", builds, s.Apps[0])
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
