package harness

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestCLIRegistrationAndAccessors(t *testing.T) {
	var cli CLI
	fs := NewFlagSet("test", io.Discard)
	cli.RegisterSize(fs, "ci")
	cli.RegisterParallel(fs)
	cli.RegisterMetrics(fs)
	cli.RegisterSample(fs)
	cli.RegisterFaults(fs)

	err := fs.Parse([]string{
		"-size", "mini", "-j", "4", "-metrics", "out",
		"-sample", "1000", "-faults", "seed=42,drop=0.02",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Spec.Size != "mini" {
		t.Fatalf("size %q", cli.Spec.Size)
	}
	if cli.Workers() != 4 {
		t.Fatalf("workers %d, want 4", cli.Workers())
	}
	if cli.MetricsDir != "out" || cli.Spec.SampleEvery != 1000 {
		t.Fatalf("metrics %q sample %d", cli.MetricsDir, cli.Spec.SampleEvery)
	}
	cfg, err := cli.Spec.Cell("fft", "SCOMA", nil).Config()
	if err != nil {
		t.Fatal(err)
	}
	if plan := cfg.Faults; plan == nil || plan.Seed != 42 || plan.Default.Drop != 0.02 {
		t.Fatalf("fault plan %+v", plan)
	}
}

func TestCLIWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	for _, args := range [][]string{nil, {"-j", "0"}} {
		var cli CLI
		fs := NewFlagSet("test", io.Discard)
		cli.RegisterParallel(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if got, want := cli.Workers(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("args %q: workers %d, want GOMAXPROCS %d", args, got, want)
		}
	}
}

func TestCLISeqOverridesJobs(t *testing.T) {
	var cli CLI
	fs := NewFlagSet("test", io.Discard)
	cli.RegisterParallel(fs)
	if err := fs.Parse([]string{"-j", "8", "-seq"}); err != nil {
		t.Fatal(err)
	}
	if cli.Workers() != 1 {
		t.Fatalf("workers %d, want 1 under -seq", cli.Workers())
	}
}

func TestCLIEmptyFaultsIsPerfectFabric(t *testing.T) {
	var cli CLI
	fs := NewFlagSet("test", io.Discard)
	cli.RegisterFaults(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := cli.Spec.Cell("fft", "SCOMA", nil).Config()
	if err != nil || cfg.Faults != nil {
		t.Fatalf("empty -faults: plan %v err %v, want nil/nil", cfg.Faults, err)
	}
}

func TestCLIBadValues(t *testing.T) {
	for _, args := range [][]string{{"-size", "huge"}, {"-faults", "drop=2"}} {
		var cli CLI
		fs := NewFlagSet("test", io.Discard)
		cli.RegisterSize(fs, "ci")
		cli.RegisterFaults(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := cli.Spec.Normalize(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestParseSizeErrorNamesValidSizes: a mistyped -size must tell the
// user every accepted spelling, and every listed spelling must parse.
func TestParseSizeErrorNamesValidSizes(t *testing.T) {
	_, err := ParseSize("huge")
	if err == nil {
		t.Fatal("size huge accepted")
	}
	for _, name := range SizeNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name valid size %q", err, name)
		}
		if _, perr := ParseSize(name); perr != nil {
			t.Errorf("listed size %q does not parse: %v", name, perr)
		}
	}
}

// TestSweepWithFaultsDeterministic: a lossy sweep through the harness
// terminates, and two identical invocations emit byte-identical CSV.
func TestSweepWithFaultsDeterministic(t *testing.T) {
	run := func() []byte {
		opts := Options{
			Spec: Spec{
				Size:     "mini",
				Apps:     []string{"water-spa"},
				Policies: []string{"SCOMA"},
				Faults:   "seed=7,drop=0.02,dup=0.02",
			},
			Workers: 1,
		}
		runs, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, runs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lossy sweeps diverged:\n%s\n%s", a, b)
	}
}
