package main

import (
	"strings"
	"testing"
)

// TestReport pins the example's deterministic output: fft's cycles
// under SCOMA and under capped Dyn-LRU, and their ratio.
func TestReport(t *testing.T) {
	var out strings.Builder
	if err := report(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"workload=fft policy=Dyn-LRU\n",
		"SCOMA baseline cycles: 1721091  →  Dyn-LRU: 1782891 (1.04x)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
