package main

import (
	"strings"
	"testing"
)

// TestSingleCellMatchesList: a capped single cell is sized exactly like
// the same cell of a list, and -cap-frac 0 means the paper's 0.70 on
// both paths.
func TestSingleCellMatchesList(t *testing.T) {
	var single, list, errb strings.Builder
	if code := run([]string{"-app", "fft", "-size", "mini", "-cap-frac", "0", "-policy", "SCOMA-70"}, &single, &errb); code != 0 {
		t.Fatalf("single cell: exit %d, stderr:\n%s", code, errb.String())
	}
	if code := run([]string{"-app", "fft", "-size", "mini", "-cap-frac", "0", "-policy", "SCOMA,SCOMA-70", "-j", "1"}, &list, &errb); code != 0 {
		t.Fatalf("list: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(single.String(), "policy=SCOMA-70") || !strings.HasSuffix(list.String(), single.String()) {
		t.Errorf("single SCOMA-70 cell differs from the list's:\n--- single ---\n%s--- list ---\n%s", single.String(), list.String())
	}
}

// TestCapFracOutOfRange: -cap-frac outside (0,1] is refused with one
// line, as prismd refuses cap_fraction.
func TestCapFracOutOfRange(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-app", "fft", "-size", "mini", "-policy", "SCOMA-70", "-cap-frac", "1.5"}, &out, &errb)
	if code != 1 || strings.Count(errb.String(), "\n") != 1 || !strings.Contains(errb.String(), "cap_fraction") {
		t.Errorf("exit %d, stderr %q; want exit 1 and one cap_fraction line", code, errb.String())
	}
}
