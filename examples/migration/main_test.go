package main

import (
	"strings"
	"testing"
)

// TestReport pins the example's deterministic output: the cycle counts
// with fixed homes and with the migration daemon, the pages it moved
// and the speedup EXPERIMENTS.md quotes.
func TestReport(t *testing.T) {
	var out strings.Builder
	if err := report(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fixed homes:    cycles=38103975 ",
		"with migration: cycles=8027011 ",
		"migrated pages=21\n",
		"speedup: 4.75x",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
