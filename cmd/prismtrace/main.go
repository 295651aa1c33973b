// Command prismtrace runs a workload with reference tracing enabled
// and prints its memory-access profile: footprint, read/write mix,
// sharing-degree histogram and the hottest pages — the properties that
// decide whether pages want S-COMA or LA-NUMA frames.
//
// Usage:
//
//	prismtrace -app radix -size mini [-top 20] [-csv pages.csv]
//	prismtrace -app synth -ops 5000 -writes 40
package main

import (
	"fmt"
	"io"
	"os"

	"prism"
	"prism/internal/harness"
	"prism/internal/trace"
	"prism/workloads"
)

func main() {
	defer harness.HandlePanic("prismtrace")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "prismtrace:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: the simulation is deterministic,
// so identical arguments produce identical output on stdout.
func run(args []string, stdout, stderr io.Writer) error {
	var cli harness.CLI
	fs := harness.NewFlagSet("prismtrace", stderr)
	app := fs.String("app", "fft", "app spec, name[:key=val,key=val] (or 'synth')")
	cli.RegisterSize(fs, "mini")
	pol := fs.String("policy", "SCOMA", "page-mode policy")
	top := fs.Int("top", 16, "hottest pages to print")
	csv := fs.String("csv", "", "write per-page profile CSV to this file")
	ops := fs.Int("ops", 2000, "synth: shared ops per iteration")
	writes := fs.Int("writes", 30, "synth: store percentage")
	random := fs.Int("random", 25, "synth: hot-set percentage")
	cli.RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A capped policy runs with the caps the sweep's sizing pass would
	// give it; synth is built here, not registered, so it is never sized.
	cell := harness.Cell{App: *app, Policy: *pol, Size: cli.Spec.Size, Faults: cli.Spec.Faults}
	var w prism.Workload
	var err error
	if *app == "synth" {
		sc := workloads.DefaultSynthConfig()
		sc.OpsPerIter = *ops
		sc.WritePct = *writes
		sc.RandomPct = *random
		if err := sc.Validate(); err != nil {
			return err
		}
		w = workloads.NewSynth(sc)
	} else {
		if cell, err = cell.Sized(0); err != nil {
			return err
		}
		if w, err = cell.Workload(); err != nil {
			return err
		}
	}

	cfg, err := cell.Config()
	if err != nil {
		return err
	}
	m, err := prism.New(cfg)
	if err != nil {
		return err
	}
	col := trace.NewCollector(cfg.Geometry)
	m.SetTracer(col)

	res, err := m.Run(w)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s (%s, %s): cycles=%d remote misses=%d\n\n",
		w.Name(), cell.Size, *pol, res.Cycles, res.RemoteMisses)
	fmt.Fprint(stdout, col.Summary(*top, m.NumProcs()))

	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := col.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *csv)
	}
	return nil
}
