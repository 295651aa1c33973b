package benchsuite_test

import (
	"runtime"
	"slices"
	"testing"

	"prism/internal/benchsuite"
	"prism/internal/harness"
)

// BenchmarkLayer runs the layer rows; CI runs them at -benchtime=10000x.
func BenchmarkLayer(b *testing.B) {
	for _, r := range benchsuite.Layers {
		b.Run(r.Name, r.Run)
	}
}

// BenchmarkMachine runs the machine rows; CI runs them at -benchtime=1x.
func BenchmarkMachine(b *testing.B) {
	for _, m := range benchsuite.Machines {
		b.Run(m.Name, m.Run)
	}
}

// TestCoroutineHandoffStopsItsCoroutine: testing.Benchmark calls a body
// several times, and each call starts a coroutine; a body that left
// its coroutine parked would leak one goroutine per call.
func TestCoroutineHandoffStopsItsCoroutine(t *testing.T) {
	i := slices.IndexFunc(benchsuite.Layers, func(r benchsuite.Bench) bool { return r.Name == "CoroutineHandoff" })
	if i < 0 {
		t.Fatal("no CoroutineHandoff row")
	}
	before := runtime.NumGoroutine()
	if r := testing.Benchmark(benchsuite.Layers[i].Run); r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before the benchmark, %d after", before, after)
	}
}

// TestMachineRadixPagesOut: the row that times paging must page. An
// uncapped Dyn-LRU run never fills its page cache, so it is the SCOMA
// run under another name.
func TestMachineRadixPagesOut(t *testing.T) {
	i := slices.IndexFunc(benchsuite.Machines, func(m benchsuite.Machine) bool { return m.Name == "MachineRadix" })
	if i < 0 {
		t.Fatal("no MachineRadix row")
	}
	c, err := benchsuite.Machines[i].Cell.Sized(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunCell(c, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientPageOuts == 0 {
		t.Fatalf("%s/%s with caps %v: no client page-outs", c.App, c.Policy, c.Caps)
	}
}
