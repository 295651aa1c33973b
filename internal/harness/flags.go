package harness

// Shared CLI surface of the prism commands. Every tool that exposes
// -size, -j/-seq, -metrics, -sample or -faults registers the flag here,
// so names, defaults and help text cannot drift between prismbench,
// prismsim, prismstat and prismtrace — and so the fault-spec syntax is
// parsed by exactly one function (fault.ParseSpec).

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"prism/internal/fault"
	"prism/internal/sim"
	"prism/workloads"
)

// CLI collects the flag values shared across the prism commands. A tool
// registers the subset it supports on its flag set, parses, and then
// reads the resolved values through the accessor methods.
type CLI struct {
	SizeName   string
	Jobs       int
	Seq        bool
	MetricsDir string
	Sample     uint64
	FaultSpec  string
}

// NewFlagSet builds a flag set the way the prism commands use them:
// ContinueOnError, usage and errors on out.
func NewFlagSet(name string, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	return fs
}

// RegisterSize registers -size with default def ("mini", "ci", "paper").
func (c *CLI) RegisterSize(fs *flag.FlagSet, def string) {
	fs.StringVar(&c.SizeName, "size", def, "data-set size: "+strings.Join(SizeNames, "|"))
}

// RegisterParallel registers the worker-pool pair -j / -seq.
func (c *CLI) RegisterParallel(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "j", 0, "max concurrent runs (0 = all host cores)")
	fs.BoolVar(&c.Seq, "seq", false, "force the sequential path (same as -j 1)")
}

// RegisterMetrics registers -metrics (telemetry export directory).
func (c *CLI) RegisterMetrics(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsDir, "metrics", "",
		"write each run's telemetry export to this directory (<app>_<policy>.json; analyze with prismstat)")
}

// RegisterSample registers -sample (interval snapshots in the export).
func (c *CLI) RegisterSample(fs *flag.FlagSet) {
	fs.Uint64Var(&c.Sample, "sample", 0,
		"record interval metric snapshots every N cycles in the export (needs -metrics; 0 = final snapshot only)")
}

// RegisterFaults registers -faults (lossy-fabric fault spec).
func (c *CLI) RegisterFaults(fs *flag.FlagSet) {
	fs.StringVar(&c.FaultSpec, "faults", "",
		"lossy-fabric spec: seed=N,drop=P,dup=P,delay=P[,delaymax=N,rto=N,rtomax=N,retry=N,<class>.<field>=V] (empty = perfect fabric)")
}

// Size resolves -size.
func (c *CLI) Size() (workloads.Size, error) { return ParseSize(c.SizeName) }

// Workers resolves -j / -seq into a harness worker count.
func (c *CLI) Workers() int {
	if c.Seq {
		return 1
	}
	return c.Jobs
}

// SampleEvery resolves -sample into a snapshot interval.
func (c *CLI) SampleEvery() sim.Time { return sim.Time(c.Sample) }

// FaultPlan resolves -faults into a fault plan; an empty spec returns
// (nil, nil), the perfect fabric.
func (c *CLI) FaultPlan() (*fault.Plan, error) { return fault.ParseSpec(c.FaultSpec) }

// SizeNames lists the valid -size spellings in ascending scale order —
// shared flag help text across the commands (workloads.SizeNames is
// the source of truth).
var SizeNames = workloads.SizeNames()

// ParseSize maps a -size value to a workload size. The error (wrapping
// workloads.ErrUnknownSize) names every valid size, so a mistyped flag
// is self-explanatory.
func ParseSize(s string) (workloads.Size, error) {
	return workloads.ParseSize(s)
}

// HandlePanic is the CLI-wide backstop every prism command defers at
// the top of main: an escaped panic (a bad flag combination reaching a
// model invariant, an internal bug) becomes the same contract as any
// other CLI failure — one line on stderr and a non-zero exit — instead
// of a goroutine dump.
func HandlePanic(tool string) {
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "%s: fatal: %v\n", tool, r)
		os.Exit(1)
	}
}
