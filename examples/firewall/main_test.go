package main

import (
	"strings"
	"testing"
)

// TestReport pins the example's deterministic output: every wild write
// from node 7 faults and is dropped at the home, and the authorized
// node 1 takes no fault.
func TestReport(t *testing.T) {
	var out strings.Builder
	if err := report(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wild writes attempted by faulty node 7: 16\n",
		"access faults taken by node 7:          16\n",
		"firewall drops recorded at the home:    16\n",
		"access faults at authorized node 1:     0\n",
		"✓ wild writes contained",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
