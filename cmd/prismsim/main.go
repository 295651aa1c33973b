// Command prismsim runs one or more applications under one or more
// page-mode policies on the simulated PRISM machine and prints each
// run's statistics.
//
// Usage:
//
//	prismsim -app fft -policy Dyn-LRU -size ci [-cap-frac 0.7] [-pit 2]
//	prismsim -app fft,ocean -policy SCOMA,Dyn-LRU -size ci -j 8
//	prismsim -app fft -policy SCOMA -faults seed=42,drop=0.02,dup=0.01
//
// Capped policies (SCOMA-70, Dyn-*) automatically run a SCOMA sizing
// pass first, exactly like the paper's methodology. With comma-
// separated -app/-policy lists the cells execute concurrently on -j
// workers (default: all host cores; -seq forces one at a time); every
// cell owns a private machine, so the printed results are identical at
// any -j, in app-major, policy-minor order. A single cell runs exactly
// as the same cell of a list does.
//
// -faults makes the interconnect lossy under a seeded deterministic
// schedule; the network's recovery transport (timeouts, retransmission,
// duplicate suppression) repairs the damage, so runs still terminate
// with the usual results. The sizing pass runs on the same lossy fabric.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prism/internal/harness"
	"prism/workloads"
)

func main() {
	defer harness.HandlePanic("prismsim")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var cli harness.CLI
	fs := harness.NewFlagSet("prismsim", stderr)
	app := fs.String("app", "fft", "app spec (comma-separated list allowed): name[:key=val;key=val] over "+strings.Join(workloads.AllNames(), "|"))
	pol := fs.String("policy", "SCOMA", "policy (comma-separated list allowed): SCOMA|LANUMA|SCOMA-70|Dyn-FCFS|Dyn-Util|Dyn-LRU")
	cli.RegisterSize(fs, "ci")
	fs.Float64Var(&cli.Spec.CapFraction, "cap-frac", 0.70, "page-cache fraction of SCOMA max (capped policies)")
	fs.Uint64Var(&cli.Spec.PITAccess, "pit", 0, "PIT access time override in cycles (0 = default 2)")
	cli.RegisterParallel(fs)
	cli.RegisterMetrics(fs)
	cli.RegisterSample(fs)
	cli.RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := harness.Options{Spec: cli.Spec, Log: stderr, Workers: cli.Workers(), MetricsDir: cli.MetricsDir}
	opts.Apps = harness.SplitAppList(*app)
	opts.Policies = strings.Split(*pol, ",")
	// Normalize here too: the printed cells are looked up by their
	// canonical names.
	if err := opts.Normalize(); err != nil {
		return fail(stderr, err)
	}
	if len(opts.Apps) > 1 || len(opts.Policies) > 1 {
		runs, err := harness.Run(opts)
		if err != nil {
			return fail(stderr, err)
		}
		for _, ar := range runs {
			for _, p := range opts.Policies {
				if res, ok := ar.ByPol[p]; ok {
					fmt.Fprint(stdout, res)
				}
			}
		}
		return 0
	}

	cell, err := opts.Cell(opts.Apps[0], opts.Policies[0], nil).Sized(opts.CapFraction)
	if err != nil {
		return fail(stderr, err)
	}
	if cell.Caps != nil {
		fmt.Fprintf(stderr, "page-cache caps per node: %v\n", cell.Caps)
	}
	res, err := harness.RunCell(cell, opts.MetricsDir)
	if err != nil {
		return fail(stderr, err)
	}
	if opts.MetricsDir != "" {
		fmt.Fprintf(stderr, "wrote %s\n", filepath.Join(opts.MetricsDir, cell.Name()+".json"))
	}
	fmt.Fprint(stdout, res)
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "prismsim:", err)
	return 1
}
