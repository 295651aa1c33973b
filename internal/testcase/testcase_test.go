package testcase

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prism/internal/harness"
	"prism/workloads"
)

// TestChaosCaseCreateVerify exercises the full lifecycle on the chaos
// workload: create (with an embedded checkpoint and its replay
// self-check), serialize, reload, verify.
func TestChaosCaseCreateVerify(t *testing.T) {
	c := &Case{
		Name:         "chaos-lifecycle",
		Cell:         harness.Cell{App: ChaosName, Policy: "SCOMA"},
		Seed:         1,
		Ops:          400,
		CheckpointAt: 1,
	}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	if c.Expect == nil || c.Expect.ResultsSHA256 == "" {
		t.Fatal("create recorded no expectations")
	}
	if c.Checkpoint == nil {
		t.Fatal("create embedded no checkpoint")
	}

	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("case serialization is not a byte-identical round trip")
	}

	if _, err := c2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSplashCaseCreateVerify runs the lifecycle on a real SPLASH
// kernel at mini size, checkpoint embedded. The capped policy is sized
// by Create, so the case is a real Dyn-FCFS run.
func TestSplashCaseCreateVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPLASH lifecycle in -short mode")
	}
	c := &Case{
		Name:         "fft-mini",
		Cell:         harness.Cell{App: "fft", Size: "mini", Policy: "Dyn-FCFS"},
		CheckpointAt: 1,
	}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Caps) == 0 {
		t.Fatal("Create recorded no page-cache caps for a capped policy")
	}
	if _, err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestExpectDivergenceDetected corrupts a recorded expectation and
// checks Verify reports it.
func TestExpectDivergenceDetected(t *testing.T) {
	c := &Case{Name: "chaos-diverge", Cell: harness.Cell{App: ChaosName, Policy: "SCOMA"}, Seed: 3, Ops: 200}
	if err := Create(c); err != nil {
		t.Fatal(err)
	}
	c.Expect.Cycles++
	if _, err := c.Verify(); err == nil {
		t.Fatal("verify accepted a corrupted expectation")
	}
}

// TestCorpusReplays is the regression gate over the committed corpus:
// every .prismcase under testdata/cases must verify — full rerun and,
// where a checkpoint is embedded, restore + resume — bit-identically.
// A case of a capped policy on a registered workload must also record
// the row a sweep of that app and policy produces: the case is the
// sweep's cell, sized the same way.
func TestCorpusReplays(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "cases")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus directory: %v", err)
	}
	var n int
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".prismcase" {
			continue
		}
		n++
		path := filepath.Join(dir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			if testing.Short() && n > 1 {
				t.Skip("corpus subset in -short mode")
			}
			c, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Verify(); err != nil {
				t.Fatal(err)
			}
			name, _, _ := strings.Cut(c.App, ":")
			if _, registered := workloads.Lookup(name); registered && harness.Capped(c.Policy) {
				runs, err := harness.Run(harness.Options{
					Spec:    harness.Spec{Size: c.Size, Apps: []string{c.App}, Policies: []string{c.Policy}},
					Workers: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				want := harness.FormatRow(runs[0].App, c.Policy, runs[0].ByPol[c.Policy])
				if c.Expect.CSVRow != want {
					t.Errorf("case records\n  %s\nthe sweep's cell is\n  %s", c.Expect.CSVRow, want)
				}
			}
		})
	}
	if n == 0 {
		t.Fatalf("no .prismcase files in %s", dir)
	}
}

// TestMinimizeShrinks drives the minimizer with a synthetic oracle so
// the shrink logic is tested without needing a real protocol bug: the
// "failure" persists whenever the seed survives and at least 100 ops
// run.
func TestMinimizeShrinks(t *testing.T) {
	c := &Case{
		Name: "shrink-me",
		Cell: harness.Cell{
			App:         ChaosName,
			Policy:      "Dyn-Both",
			PITAccess:   10,
			Faults:      "seed=7,drop=0.05",
			SampleEvery: 1000,
		},
		Seed:         7,
		Ops:          1600,
		HardwareSync: true,
	}
	fails := func(c *Case) bool { return c.Seed == 7 && c.Ops >= 100 }
	m := Minimize(c, fails)
	if m.Ops < 100 || m.Ops >= 200 {
		t.Errorf("ops not minimized: %d", m.Ops)
	}
	if m.Faults != "" || m.HardwareSync || m.PITAccess != 0 || m.SampleEvery != 0 {
		t.Errorf("knobs not cleared: %+v", m)
	}
	if m.Policy != "SCOMA" {
		t.Errorf("policy not simplified: %s", m.Policy)
	}
	if m.Nodes != 2 || m.Procs != 1 {
		t.Errorf("shape not minimized: nodes=%d procs=%d", m.Nodes, m.Procs)
	}
	if m.Checkpoint != nil || m.Expect != nil {
		t.Error("stale checkpoint/expectations survived minimization")
	}
	// The minimized case must still fail under the oracle and the
	// original must be untouched.
	if !fails(m) {
		t.Error("minimized case no longer fails")
	}
	if c.Ops != 1600 || !c.HardwareSync {
		t.Error("minimize mutated its input")
	}
}

// TestMinimizeNonFailure: a passing case comes back (stripped) rather
// than being shrunk into something unrelated.
func TestMinimizeNonFailure(t *testing.T) {
	c := &Case{Name: "ok", Cell: harness.Cell{App: ChaosName, Policy: "SCOMA"}, Seed: 1, Ops: 800}
	m := Minimize(c, func(*Case) bool { return false })
	if m.Ops != 800 {
		t.Errorf("non-failing case was shrunk: ops=%d", m.Ops)
	}
}
