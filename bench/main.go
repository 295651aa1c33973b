// Command bench is the PRISM reproduction's benchmark: it measures the
// host time of the simulator end to end and layer by layer on four
// workloads, checks every output against the committed reference files
// and compares two sets of results. See README.md.
//
// It drives the system from outside: the in-process cells go through
// the prism facade and the workloads registry, the sweep and the
// gateway through the prismbench and prismd binaries (their CLI flags
// and prismd's HTTP/JSON API), and the layer probes through each
// layer's exported API. bench/run.sh builds everything and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"
)

// env is what every workload takes from the command line.
type env struct {
	seed   int64
	rng    *rand.Rand
	bin    string // directory holding the prismbench and prismd binaries
	tmp    string // scratch directory for child outputs
	probes map[string]float64
}

// instance is one opened workload: its untimed set-up is done, and each
// call to pass runs one timed pass.
type instance interface {
	// pass runs one timed pass and returns its values by metric name,
	// setup_s being the median of the pass's set-up samples. Checks go
	// to r.check.
	pass(r *run) (map[string]float64, error)
	// traced runs one extra pass with tracing on. It never feeds the
	// end-to-end metrics; its numbers go to r.layers.
	traced(r *run, probes map[string]float64) error
}

var openers = map[string]func(*env) (instance, error){
	"ci-cells":     openCells,
	"ci-stress":    openStress,
	"ci-sweep":     openSweep,
	"dc64-gateway": openGateway,
}

// run collects the measurement of one workload.
type run struct {
	name      string
	passes    []map[string]float64
	layers    map[string]float64 // traced-pass values; they win over pass medians
	attr      []attribution
	attempted int
	failed    int
}

// check counts one operation and reports whether it succeeded. A
// failure is printed and counted; it never aborts the run.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %s\n", r.name, fmt.Sprintf(format, args...))
	}
	return ok
}

// samples returns every pass's value of a metric.
func (r *run) samples(name string) []float64 {
	var xs []float64
	for _, p := range r.passes {
		if v, ok := p[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// value is a metric's reported number: the traced value when there is
// one, else the median over passes, else 0 (the workload never
// exercises it). The peak resident set of a run is the highest of its
// passes: prismd's per-pass peak is bimodal (109 or 137 MB), depending
// on which grid cells the pool happens to overlap.
func (r *run) value(name string) float64 {
	if v, ok := r.layers[name]; ok {
		return v
	}
	xs := r.samples(name)
	switch {
	case len(xs) == 0:
		return 0
	case name == "peak_rss_mb":
		return sorted(xs)[len(xs)-1]
	}
	return median(xs)
}

// measure opens a workload and runs timed passes: exactly passes of
// them when passes > 0, else as many as fit in seconds (at least one).
// Calibration samples are taken before the first pass and after each
// one, and the passes' end-to-end numbers are normalized by all of
// them. With trace it then runs the layer probes and the traced pass.
func measure(e *env, name string, passes int, seconds float64, trace bool) (*run, error) {
	open, ok := openers[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
	}
	r := &run{name: name, layers: map[string]float64{}}
	inst, err := open(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	start := time.Now()
	var durs []float64
	cal, err := hostSamples()
	if err != nil {
		return nil, err
	}
	for {
		runtime.GC() // each pass starts from a collected heap
		t := time.Now()
		vals, err := inst.pass(r)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", name, len(r.passes)+1, err)
		}
		r.passes = append(r.passes, vals)
		fmt.Fprintf(os.Stderr, "bench: %s: pass %d (raw): %s\n", name, len(r.passes), formatPass(vals))
		more, err := hostSamples()
		if err != nil {
			return nil, err
		}
		cal = append(cal, more...)
		durs = append(durs, time.Since(t).Seconds())
		if passes > 0 {
			if len(r.passes) >= passes {
				break
			}
		} else if time.Since(start).Seconds()+median(durs) > seconds {
			break
		}
	}
	for _, vals := range r.passes {
		normalize(vals, cal)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: host.speed=%.3f from %d calibration samples\n", name, r.value("host.speed"), len(cal))
	if trace {
		if e.probes == nil {
			e.probes = runProbes()
		}
		for k, v := range e.probes {
			r.layers[k] = v
		}
		pre, err := hostSamples()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if err := inst.traced(r, e.probes); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		post, err := hostSamples()
		if err != nil {
			return nil, err
		}
		// The traced pass compared raw times; put both sides at the
		// reference speed, so the host's drift since the timed passes
		// does not read as tracing overhead.
		if o, ok := r.layers["trace.overhead_frac"]; ok {
			traced := refCalSeconds / median(append(pre, post...))
			r.layers["trace.overhead_frac"] = (1+o)*traced/r.value("host.speed") - 1
		}
	}
	return r, nil
}

func formatPass(vals map[string]float64) string {
	var parts []string
	for _, m := range endToEnd {
		if v, ok := vals[m.Name]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
		}
	}
	return strings.Join(parts, " ")
}

// reportValue is one metric in the result line.
type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a single-workload run: the
// end-to-end metrics untraced, the per-layer metrics traced.
func resultLine(r *run, trace bool) map[string]any {
	ms := endToEnd
	if trace {
		ms = perLayer
	}
	vals := map[string]reportValue{}
	for _, m := range ms {
		vals[m.Name] = reportValue{r.value(m.Name), m.Unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	}
}

func main() {
	runtime.GOMAXPROCS(2)
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: cell order, lossy-fabric fault seed, cache-hit spellings")
	seconds := fs.Float64("seconds", 0, "with -workload and no -out: measure passes for this long")
	trace := fs.Int("trace", 0, "with -workload and no -out: 1 reports the per-layer metrics from a traced pass")
	runs := fs.Int("runs", 5, "with -out: timed passes per workload")
	out := fs.String("out", "", "run every workload (or -workload), traced, and write the result set here")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	bin := fs.String("bin", "", "directory holding the prismbench and prismd binaries")
	tmp := fs.String("tmp", os.TempDir(), "scratch directory for child outputs")
	calibrate := fs.Int("calibrate", 0, "print the times of this many calibration loops (the benchmark runs itself so)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calibrate > 0 {
		return calibrationMain(stdout, *calibrate)
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err := checkRepo(); err != nil {
		return err
	}
	e := &env{seed: *seed, rng: rand.New(rand.NewSource(*seed)), bin: *bin, tmp: *tmp}

	if *out != "" {
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		return runSet(stdout, e, names, *runs, *out)
	}
	if *workload == "" || *seconds <= 0 {
		return errors.New("need -workload and -seconds (or -out, or -compare)")
	}
	r, err := measure(e, *workload, 0, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine(r, *trace == 1))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkRepo fails unless the working directory is the repository root:
// the reference files the benchmark checks against live there.
func checkRepo() error {
	for _, f := range []string{"go.mod", "results_ci.csv", "results_scale.csv"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}
