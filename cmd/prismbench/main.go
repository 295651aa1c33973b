// Command prismbench regenerates the paper's tables and figures.
//
// Usage:
//
//	prismbench -exp table1                 # latency microbenchmark
//	prismbench -exp fig7,table3,table4,table5 -size ci
//	prismbench -exp pit                    # §4.3 PIT study
//	prismbench -exp all -size ci
//	prismbench -exp fig7 -size ci -verify results_ci.csv   # regression gate
//	prismbench -exp fig7 -size ci -faults seed=42,drop=0.02  # lossy fabric
//
// Figure 7 and Tables 3-5 come from the same six-policy sweep, which
// is run once per invocation when any of them is requested. Sweep
// cells run concurrently on -j workers (default: all host cores); each
// cell is an independent deterministic simulation, so the output is
// byte-identical to a -seq run at any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"prism/internal/harness"
)

func main() {
	defer harness.HandlePanic("prismbench")
	var cli harness.CLI
	exp := flag.String("exp", "all", "experiments: "+strings.Join(experiments, ",")+",all")
	cli.RegisterSize(flag.CommandLine, "ci")
	apps := flag.String("apps", "", "comma-separated app specs, name[:key=val;key=val] (default the eight SPLASH kernels)")
	pols := flag.String("pols", "", "comma-separated policy subset in sweep order (default the Figure 7 six)")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	csvPath := flag.String("csv", "", "also write the sweep's raw per-run results as CSV")
	cli.RegisterParallel(flag.CommandLine)
	verify := flag.String("verify", "", "compare the sweep's CSV against this reference file and fail on divergence")
	cli.RegisterMetrics(flag.CommandLine)
	cli.RegisterSample(flag.CommandLine)
	cli.RegisterFaults(flag.CommandLine)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	bench := flag.String("bench", "", "run in-process microbenchmarks: comma list or 'all' ("+strings.Join(benchNames(), ",")+")")
	benchJSON := flag.String("benchjson", "", "write -bench results (plus sweep wall time, if a sweep ran) as JSON")
	benchCheck := flag.String("benchcheck", "", "fail if -bench allocs/op regress above this committed baseline JSON")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote heap profile %s\n", *memprofile)
		}()
	}

	size, err := cli.Size()
	if err != nil {
		fatal(err)
	}
	faults, err := cli.FaultPlan()
	if err != nil {
		fatal(err)
	}

	want, err := parseExperiments(*exp)
	if err != nil {
		fatal(err)
	}

	opts := harness.Options{
		Size:        size,
		Workers:     cli.Workers(),
		MetricsDir:  cli.MetricsDir,
		SampleEvery: cli.SampleEvery(),
		Faults:      faults,
	}
	if *apps != "" {
		opts.Apps = harness.SplitAppList(*apps)
	}
	if *pols != "" {
		opts.Policies = strings.Split(*pols, ",")
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *verify != "" && !(want["fig7"] || want["table3"] || want["table4"] || want["table5"]) {
		fatal(fmt.Errorf("-verify needs the policy sweep (fig7/table3/table4/table5)"))
	}

	if want["table1"] {
		out, err := harness.RunTable1()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if want["table2"] {
		fmt.Println(harness.FormatTable2())
	}

	var sweep *SweepTiming
	if want["fig7"] || want["table3"] || want["table4"] || want["table5"] {
		start := time.Now()
		runs, err := harness.Run(opts)
		if err != nil {
			fatal(err)
		}
		sweep = &SweepTiming{
			Exp: *exp, Size: cli.SizeName, Jobs: opts.Workers,
			WallMS: time.Since(start).Milliseconds(),
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := harness.WriteCSV(f, runs); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
		if *verify != "" {
			if err := harness.VerifyAgainstFile(runs, *verify); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "verify: sweep matches %s\n", *verify)
		}
		if want["fig7"] {
			fmt.Println(harness.FormatFig7(runs))
		}
		if want["table3"] {
			fmt.Println(harness.FormatTable3(runs))
		}
		if want["table4"] {
			fmt.Println(harness.FormatTable4(runs))
		}
		if want["table5"] {
			fmt.Println(harness.FormatTable5(runs))
		}
	}

	if want["pit"] {
		rows, err := harness.RunPITSweep(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatPITSweep(rows))
	}

	if sweep != nil {
		fmt.Fprintf(os.Stderr, "sweep wall time: %d ms (jobs=%d)\n", sweep.WallMS, sweep.Jobs)
	}

	if *bench != "" {
		results, err := runBenchSuite(*bench)
		if err != nil {
			fatal(err)
		}
		fmt.Println(formatBench(results))
		if *benchJSON != "" {
			rep := BenchReport{Benchmarks: results, Sweep: sweep}
			if err := writeBenchJSON(*benchJSON, rep); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchJSON)
		}
		if *benchCheck != "" {
			if err := checkBenchBaseline(*benchCheck, results); err != nil {
				fatal(err)
			}
		}
	} else if *benchJSON != "" || *benchCheck != "" {
		fatal(fmt.Errorf("-benchjson/-benchcheck need -bench"))
	}
}

// experiments are the -exp names, in output order; "all" selects each.
var experiments = []string{"table1", "table2", "fig7", "table3", "table4", "table5", "pit"}

// parseExperiments turns the -exp list into the set of experiments to
// run, rejecting any name that is not an experiment or "all".
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		switch {
		case e == "all":
			for _, x := range experiments {
				want[x] = true
			}
		case slices.Contains(experiments, e):
			want[e] = true
		default:
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s,all)", e, strings.Join(experiments, ","))
		}
	}
	return want, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prismbench:", err)
	os.Exit(1)
}
