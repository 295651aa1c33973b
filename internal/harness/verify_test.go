package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sweepForVerify(t *testing.T) []AppRun {
	t.Helper()
	opts := miniOpts()
	opts.Workers = 4
	runs, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestDiffCSV(t *testing.T) {
	a := "h\n1,2,3\n4,5,6\n"
	if err := DiffCSV(a, a); err != nil {
		t.Errorf("identical CSVs diverged: %v", err)
	}
	err := DiffCSV(a, "h\n1,2,3\n4,5,7\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("want line-3 divergence, got %v", err)
	}
	if err := DiffCSV(a, "h\n1,2,3\n"); err == nil || !strings.Contains(err.Error(), "line count") {
		t.Errorf("want line-count divergence, got %v", err)
	}
	// CRLF and trailing-newline differences are not divergences.
	if err := DiffCSV(a, "h\r\n1,2,3\r\n4,5,6"); err != nil {
		t.Errorf("CRLF normalization failed: %v", err)
	}
}

func TestVerifyAgainstFile(t *testing.T) {
	runs := sweepForVerify(t)
	ref := filepath.Join(t.TempDir(), "ref.csv")
	if err := os.WriteFile(ref, []byte(CSVString(runs)), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := VerifyAgainstFile(runs, ref); err != nil {
		t.Errorf("self-verify failed: %v", err)
	}

	// A subset sweep must verify against the full reference.
	subOpts := miniOpts()
	subOpts.Apps = []string{"fft"}
	subOpts.Workers = 2
	subRuns, err := Run(subOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstFile(subRuns, ref); err != nil {
		t.Errorf("subset verify failed: %v", err)
	}

	// Any perturbed number must fail the gate.
	tampered := strings.Replace(CSVString(runs), ",SCOMA,", ",SCOMA,9", 1)
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstFile(runs, bad); err == nil {
		t.Error("tampered reference passed the gate")
	} else if !strings.Contains(err.Error(), "cell ") {
		t.Errorf("divergence lacks cell id: %v", err)
	}

	// Cells missing from the reference fail too.
	if err := VerifyAgainstFile(runs, mustWriteHeaderOnly(t)); err == nil {
		t.Error("header-only reference passed the gate")
	}

	if err := VerifyAgainstFile(runs, filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Error("missing reference file passed the gate")
	}

	// A file that is not a sweep CSV fails with a one-line error.
	other := filepath.Join(t.TempDir(), "other.csv")
	if err := os.WriteFile(other, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstFile(runs, other); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("foreign header: want a one-line error, got %v", err)
	}
}

func mustWriteHeaderOnly(t *testing.T) string {
	t.Helper()
	header := strings.SplitN(CSVString(nil), "\n", 2)[0] + "\n"
	p := filepath.Join(t.TempDir(), "header.csv")
	if err := os.WriteFile(p, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}
