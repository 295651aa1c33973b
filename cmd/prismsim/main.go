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
// any -j, in app-major, policy-minor order.
//
// -faults makes the interconnect lossy under a seeded deterministic
// schedule; the network's recovery transport (timeouts, retransmission,
// duplicate suppression) repairs the damage, so runs still terminate
// with the usual results. The sizing pass runs on the same lossy fabric.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prism"
	"prism/internal/fault"
	"prism/internal/harness"
	"prism/internal/sim"
	"prism/workloads"
)

func main() {
	defer harness.HandlePanic("prismsim")
	var cli harness.CLI
	app := flag.String("app", "fft", "app spec (comma-separated list allowed): name[:key=val;key=val] over "+strings.Join(workloads.AllNames(), "|"))
	pol := flag.String("policy", "SCOMA", "policy (comma-separated list allowed): SCOMA|LANUMA|SCOMA-70|Dyn-FCFS|Dyn-Util|Dyn-LRU")
	cli.RegisterSize(flag.CommandLine, "ci")
	capFrac := flag.Float64("cap-frac", 0.70, "page-cache fraction of SCOMA max (capped policies)")
	pit := flag.Uint64("pit", 0, "PIT access time override in cycles (0 = default 2)")
	cli.RegisterParallel(flag.CommandLine)
	cli.RegisterMetrics(flag.CommandLine)
	cli.RegisterSample(flag.CommandLine)
	cli.RegisterFaults(flag.CommandLine)
	flag.Parse()

	size, err := cli.Size()
	if err != nil {
		fatal(err)
	}
	faults, err := cli.FaultPlan()
	if err != nil {
		fatal(err)
	}
	apps := harness.SplitAppList(*app)
	pols := strings.Split(*pol, ",")
	if len(apps) > 1 || len(pols) > 1 {
		runSweep(apps, pols, size, *capFrac, *pit, &cli, faults)
		return
	}

	policy, err := prism.PolicyByName(*pol)
	if err != nil {
		fatal(err)
	}

	var caps []int
	if needsCap(policy.Name()) {
		fmt.Fprintf(os.Stderr, "sizing pass (SCOMA)...\n")
		res, err := runOnce(*app, "SCOMA", size, nil, *pit, faults, "", 0)
		if err != nil {
			fatal(err)
		}
		caps = make([]int, len(res.MaxClientFrames))
		for i, c := range res.MaxClientFrames {
			caps[i] = int(float64(c) * *capFrac)
			if caps[i] < 1 {
				caps[i] = 1
			}
		}
		fmt.Fprintf(os.Stderr, "page-cache caps per node: %v\n", caps)
	}

	res, err := runOnce(*app, policy.Name(), size, caps, *pit, faults, cli.MetricsDir, cli.SampleEvery())
	if err != nil {
		fatal(err)
	}
	fmt.Print(res)
}

// runSweep executes an app × policy grid through the harness worker
// pool (the SCOMA sizing pass runs per app, as always) and prints the
// requested cells in deterministic order.
func runSweep(apps, pols []string, size workloads.Size, capFrac float64, pit uint64, cli *harness.CLI, faults *fault.Plan) {
	for _, p := range pols {
		if _, err := prism.PolicyByName(p); err != nil {
			fatal(err)
		}
	}
	opts := harness.Options{
		Size:        size,
		Apps:        apps,
		Policies:    pols,
		CapFraction: capFrac,
		PITAccess:   sim.Time(pit),
		Log:         os.Stderr,
		Workers:     cli.Workers(),
		MetricsDir:  cli.MetricsDir,
		SampleEvery: cli.SampleEvery(),
		Faults:      faults,
	}
	runs, err := harness.Run(opts)
	if err != nil {
		fatal(err)
	}
	for _, ar := range runs {
		for _, p := range pols {
			res, ok := ar.ByPol[p]
			if !ok {
				continue
			}
			fmt.Print(res)
		}
	}
}

func runOnce(app, polName string, size workloads.Size, caps []int, pit uint64, faults *fault.Plan, metricsDir string, sample sim.Time) (prism.Results, error) {
	cfg := workloads.ConfigForSize(size)
	p, err := prism.PolicyByName(polName)
	if err != nil {
		return prism.Results{}, err
	}
	cfg.Policy = p
	cfg.PageCacheCaps = caps
	if pit != 0 {
		cfg.Node.PITConfig.AccessTime = sim.Time(pit)
	}
	cfg.Faults = faults
	m, err := prism.New(cfg)
	if err != nil {
		return prism.Results{}, err
	}
	if metricsDir != "" && sample != 0 {
		m.SampleMetrics(sample)
	}
	w, err := harness.NewWorkloadSpec(app, size)
	if err != nil {
		return prism.Results{}, err
	}
	res, err := m.Run(w)
	if err != nil {
		return prism.Results{}, err
	}
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return prism.Results{}, err
		}
		path := filepath.Join(metricsDir, fmt.Sprintf("%s_%s.json", harness.SpecFileName(app), polName))
		if err := m.ExportMetrics(app, polName).WriteJSONFile(path); err != nil {
			return prism.Results{}, err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return res, nil
}

func needsCap(pol string) bool {
	return pol != "SCOMA" && pol != "LANUMA"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prismsim:", err)
	os.Exit(1)
}
