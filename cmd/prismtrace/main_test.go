package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestGoldenSynth drives a tiny deterministic synthetic workload and
// compares the full profile output against a committed golden file.
// Regenerate with: go test ./cmd/prismtrace -run Golden -update
func TestGoldenSynth(t *testing.T) {
	args := []string{"-app", "synth:ops=300;writes=30;random=25", "-top", "4"}
	var out, errb strings.Builder
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	golden := filepath.Join("testdata", "synth.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output diverges from %s (regenerate with -update):\n--- got ---\n%s--- want ---\n%s",
			golden, out.String(), string(want))
	}
}

// TestCSVOutput checks the per-page CSV side channel.
func TestCSVOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "pages.csv")
	var out, errb strings.Builder
	if err := run([]string{"-app", "synth:ops=100", "-csv", csv}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || !strings.Contains(string(b), ",") {
		t.Errorf("CSV output empty or malformed:\n%s", string(b))
	}
}

func TestBadArgs(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-app", "nosuch"}, &out, &errb); err == nil {
		t.Error("unknown app must fail")
	}
	if err := run([]string{"-size", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown size must fail")
	}
	if err := run([]string{"-policy", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown policy must fail")
	}
}

// TestCappedPolicyIsSized: a capped policy runs with the caps the
// sweep's sizing pass gives it, not uncapped (which measures SCOMA's
// 1,192,823 cycles).
func TestCappedPolicyIsSized(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-app", "radix", "-size", "mini", "-policy", "Dyn-LRU", "-top", "1"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "cycles=1278282 ") {
		t.Errorf("radix/Dyn-LRU at mini size is 1278282 cycles in the sweep; got:\n%s", out.String())
	}
}
