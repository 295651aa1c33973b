// Command prismcase creates, replays, verifies and minimizes
// .prismcase record/replay testcases: self-contained files holding a
// run's workload, seed, configuration, fault spec, optional embedded
// mid-run checkpoint, and the expected results recorded at creation.
//
// Usage:
//
//	prismcase create -o case.prismcase -workload fft -size ci -policy SCOMA -checkpoint-at 800000
//	prismcase run case.prismcase
//	prismcase verify testdata/cases/*.prismcase
//	prismcase verify -csv results_ci.csv -metrics metrics_ci.json testdata/cases/*.prismcase
//	prismcase minimize -o min.prismcase failing.prismcase
//
// verify replays each case twice — a full run from the beginning and,
// when a checkpoint is embedded, restore + resume — and requires both
// to match the recorded hashes. -csv additionally diffs each case's
// sweep row against the reference CSV's row for the same (app, policy)
// cell; -metrics diffs the full metrics export of any case matching
// the reference export's workload × policy. Both are the CI replay
// gates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/testcase"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage:
  prismcase create -o <file> -workload <name|chaos> -policy <name> [flags]
  prismcase run [-full] <file>
  prismcase verify [-csv ref.csv] [-metrics ref.json] <file>...
  prismcase minimize [-o out] <file>`

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch args[0] {
	case "create":
		return runCreate(args[1:], stdout, stderr)
	case "run":
		return runRun(args[1:], stdout, stderr)
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	case "minimize":
		return runMinimize(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "prismcase: unknown command %q\n%s\n", args[0], usage)
	return 2
}

func runCreate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("create", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("o", "", "output .prismcase path (required)")
		name    = fs.String("name", "", "case name (default: derived from workload/policy)")
		wl      = fs.String("workload", "", "workload app spec (name[:key=val,key=val]) or \"chaos\" (required)")
		size    = fs.String("size", "mini", "data-set size ("+strings.Join(harness.SizeNames, "|")+")")
		pol     = fs.String("policy", "", "policy name (required)")
		seed    = fs.Int64("seed", 1, "chaos seed")
		ops     = fs.Int("ops", 0, "chaos per-proc op count (0 = default)")
		nodesN  = fs.Int("nodes", 0, "override node count")
		procs   = fs.Int("procs", 0, "override procs per node")
		hwSync  = fs.Bool("hw-sync", false, "hardware (Sync-mode page) synchronization")
		dramPIT = fs.Bool("dram-pit", false, "PIT at DRAM speed (10-cycle access)")
		caps    = fs.String("caps", "", "per-node page-cache caps, comma separated (default: sized by the sweep's SCOMA pass, which needs the default -nodes)")
		faults  = fs.String("faults", "", "fault spec (fault.ParseSpec syntax)")
		sample  = fs.Uint64("sample", 0, "interval metric samples every N cycles")
		ckptAt  = fs.Int64("checkpoint-at", 0, "embed a checkpoint at the first quiescent barrier fill at/after this sim time")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || *wl == "" || *pol == "" {
		fmt.Fprintln(stderr, "prismcase create: -o, -workload and -policy are required")
		return 2
	}
	c := &testcase.Case{
		Name: *name,
		Cell: harness.Cell{App: *wl, Policy: *pol, Size: *size, Faults: *faults, SampleEvery: *sample},
		Seed: *seed, Ops: *ops, Nodes: *nodesN, Procs: *procs,
		HardwareSync: *hwSync, CheckpointAt: *ckptAt,
	}
	if *dramPIT {
		c.PITAccess = 10
	}
	if c.App == testcase.ChaosName {
		c.Size = ""
	} else {
		// -workload speaks the harness app-spec grammar; the case
		// stores its canonical spelling, the sweep's CSV label.
		canon, err := harness.CanonicalAppSpec(*wl)
		if err != nil {
			fmt.Fprintf(stderr, "prismcase create: %v\n", err)
			return 2
		}
		c.App = canon
	}
	if c.Name == "" {
		app, _, _ := strings.Cut(c.App, ":")
		c.Name = strings.ToLower(app + "-" + strings.ReplaceAll(*pol, "-", ""))
	}
	if *caps != "" {
		for _, f := range strings.Split(*caps, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(stderr, "prismcase create: bad -caps: %v\n", err)
				return 2
			}
			c.Caps = append(c.Caps, v)
		}
	}
	if err := testcase.Create(c); err != nil {
		fmt.Fprintf(stderr, "prismcase create: %v\n", err)
		return 1
	}
	if err := testcase.Save(*out, c); err != nil {
		fmt.Fprintf(stderr, "prismcase create: %v\n", err)
		return 1
	}
	st, _ := os.Stat(*out)
	fmt.Fprintf(stdout, "created %s (%d bytes)\n", *out, st.Size())
	printCase(stdout, c)
	return 0
}

func runRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run from the beginning even when a checkpoint is embedded")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "prismcase run: exactly one case file")
		return 2
	}
	c, err := testcase.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "prismcase run: %v\n", err)
		return 1
	}
	var o *testcase.Outcome
	if *full {
		o, err = c.RunFull()
	} else {
		o, err = c.Run()
	}
	if err != nil {
		fmt.Fprintf(stderr, "prismcase run: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, harness.CSVHeader)
	fmt.Fprintln(stdout, o.CSVRow)
	fmt.Fprintf(stdout, "cycles=%d results=%s metrics=%s\n", o.Cycles, o.ResultsSHA256, o.MetricsSHA256)
	return 0
}

func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvRef := fs.String("csv", "", "reference sweep CSV to diff case rows against")
	metRef := fs.String("metrics", "", "reference metrics export to diff matching cases against")
	refSize := fs.String("size", "ci", "only cases of this data-set size are diffed against -csv/-metrics")
	only := fs.String("only", "", "restrict the -metrics diff to component (or component/name-prefix) filters, comma separated")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var filters []string
	if *only != "" {
		filters = strings.Split(*only, ",")
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "prismcase verify: no case files")
		return 2
	}
	var refRows map[string]string
	if *csvRef != "" {
		var err error
		refRows, err = harness.ReadCSV(*csvRef)
		if err != nil {
			fmt.Fprintf(stderr, "prismcase verify: %v\n", err)
			return 1
		}
	}
	var refExport *metrics.Export
	if *metRef != "" {
		var err error
		refExport, err = metrics.ReadExportFile(*metRef)
		if err != nil {
			fmt.Fprintf(stderr, "prismcase verify: %v\n", err)
			return 1
		}
	}
	failed := 0
	metricsMatched := false
	for _, path := range fs.Args() {
		c, err := testcase.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", path, err)
			failed++
			continue
		}
		o, err := c.Verify()
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s: %v\n", path, err)
			failed++
			continue
		}
		ok := true
		atRefSize := c.Size == *refSize
		if refRows != nil && atRefSize {
			key := harness.RowKey(o.CSVRow)
			want, present := refRows[key]
			if !present {
				fmt.Fprintf(stderr, "FAIL %s: cell %s not in %s\n", path, key, *csvRef)
				ok = false
			} else if o.CSVRow != want {
				fmt.Fprintf(stderr, "FAIL %s: row diverges from %s\n  got  %q\n  want %q\n", path, *csvRef, o.CSVRow, want)
				ok = false
			}
		}
		if refExport != nil && atRefSize && o.Export.Workload == refExport.Workload && o.Export.Policy == refExport.Policy {
			metricsMatched = true
			if err := diffExports(o.Export, refExport, filters); err != nil {
				fmt.Fprintf(stderr, "FAIL %s: metrics diverge from %s: %v\n", path, *metRef, err)
				ok = false
			}
		}
		if !ok {
			failed++
			continue
		}
		fmt.Fprintf(stdout, "ok %s (%s, cycles=%d)\n", path, c.Name, o.Cycles)
	}
	if refExport != nil && !metricsMatched {
		fmt.Fprintf(stderr, "prismcase verify: no case matches %s (%s × %s)\n", *metRef, refExport.Workload, refExport.Policy)
		failed++
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "prismcase verify: %d failure(s)\n", failed)
		return 1
	}
	return 0
}

func runMinimize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minimize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output path (default <input>.min.prismcase)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "prismcase minimize: exactly one case file")
		return 2
	}
	c, err := testcase.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "prismcase minimize: %v\n", err)
		return 1
	}
	if !testcase.RunFails(c) {
		fmt.Fprintf(stderr, "prismcase minimize: %s does not fail; nothing to minimize\n", fs.Arg(0))
		return 1
	}
	m := testcase.Minimize(c, testcase.RunFails)
	if *out == "" {
		*out = strings.TrimSuffix(fs.Arg(0), ".prismcase") + ".min.prismcase"
	}
	if err := testcase.Save(*out, m); err != nil {
		fmt.Fprintf(stderr, "prismcase minimize: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "minimized %s -> %s\n", fs.Arg(0), *out)
	printCase(stdout, m)
	return 0
}

func printCase(w io.Writer, c *testcase.Case) {
	fmt.Fprintf(w, "  name=%s app=%s", c.Name, c.App)
	if c.Size != "" {
		fmt.Fprintf(w, " size=%s", c.Size)
	}
	fmt.Fprintf(w, " policy=%s", c.Policy)
	if c.App == testcase.ChaosName {
		fmt.Fprintf(w, " seed=%d ops=%d", c.Seed, c.Ops)
	}
	if c.Caps != nil {
		fmt.Fprintf(w, " caps=%v", c.Caps)
	}
	if c.Nodes > 0 {
		fmt.Fprintf(w, " nodes=%d", c.Nodes)
	}
	if c.Procs > 0 {
		fmt.Fprintf(w, " procs=%d", c.Procs)
	}
	if c.HardwareSync {
		fmt.Fprint(w, " hw-sync")
	}
	if c.PITAccess != 0 {
		fmt.Fprintf(w, " pit=%d", c.PITAccess)
	}
	if c.Faults != "" {
		fmt.Fprintf(w, " faults=%q", c.Faults)
	}
	if c.Checkpoint != nil {
		fmt.Fprintf(w, " checkpoint@t=%d", c.Checkpoint.Now)
	}
	fmt.Fprintln(w)
	if c.Expect != nil {
		fmt.Fprintf(w, "  expect cycles=%d results=%s metrics=%s\n",
			c.Expect.Cycles, c.Expect.ResultsSHA256[:12], c.Expect.MetricsSHA256[:12])
	}
}

// diffExports compares two metrics exports (optionally restricted to
// component/name-prefix filters, the same semantics as prismstat
// diff -only) and reports the first few changed metrics.
func diffExports(got, want *metrics.Export, only []string) error {
	if got.Cycles != want.Cycles {
		return fmt.Errorf("cycles %d, want %d", got.Cycles, want.Cycles)
	}
	changed := metrics.Changed(metrics.Diff(want, got, only))
	if len(changed) == 0 {
		return nil
	}
	var b strings.Builder
	for i, d := range changed {
		if i == 3 {
			fmt.Fprintf(&b, " (+%d more)", len(changed)-i)
			break
		}
		fmt.Fprintf(&b, " %s/%s[n%d] %v->%v", d.Component, d.Name, d.Node, d.A, d.B)
	}
	return fmt.Errorf("%d metrics differ:%s", len(changed), b.String())
}
