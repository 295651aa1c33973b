package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sweepShortRuns is how many one-cell sweeps each ci-sweep pass times
// around its sweep, so set-up time is a median of many samples: a
// single one moves by 20% within a second on a shared host.
const sweepShortRuns = 30

// childEnv is the environment of every child process: GOMAXPROCS
// pinned to 2 like the benchmark's own, temporary files in the
// benchmark's scratch directory.
func (e *env) childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=2", "TMPDIR="+e.tmp)
}

// child is one finished child process run.
type child struct {
	wall, cpu, rssMB float64
	firstLine        float64   // seconds from exec to the first stderr line
	lines            []string  // stderr lines
	stamps           []float64 // seconds from exec to each line's arrival
	err              error
}

// runChild executes a binary, timestamping its stderr lines as they
// arrive. Standard output is discarded.
func runChild(e *env, name string, args ...string) child {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Env = e.childEnv()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return child{err: err}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{err: err}
	}
	var c child
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		c.lines = append(c.lines, sc.Text())
		c.stamps = append(c.stamps, time.Since(start).Seconds())
	}
	c.err = cmd.Wait()
	c.wall = time.Since(start).Seconds()
	if len(c.stamps) > 0 {
		c.firstLine = c.stamps[0]
	}
	if st := cmd.ProcessState; st != nil {
		c.cpu = st.UserTime().Seconds() + st.SystemTime().Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if c.err != nil {
		c.err = fmt.Errorf("%s: %w: %s", name, c.err, strings.Join(c.lines, "\n"))
	}
	return c
}

// sweepInstance is ci-sweep: the ci Figure 7 sweep, 48 cells on the
// harness pool at -j 2, the paper-regeneration wait.
type sweepInstance struct {
	e    *env
	want []byte
	csv  string
}

func openSweep(e *env) (instance, error) {
	want, err := os.ReadFile("results_ci.csv")
	if err != nil {
		return nil, err
	}
	return &sweepInstance{e: e, want: want, csv: filepath.Join(e.tmp, "sweep.csv")}, nil
}

func (s *sweepInstance) sweep(r *run, extra ...string) (child, map[string]float64) {
	os.Remove(s.csv)
	args := append([]string{"-exp", "fig7", "-size", "ci", "-j", "2", "-csv", s.csv}, extra...)
	c := runChild(s.e, "prismbench", args...)
	got, err := os.ReadFile(s.csv)
	switch {
	case c.err != nil:
		r.check(false, "sweep: %v", c.err)
	case err != nil:
		r.check(false, "sweep CSV: %v", err)
	default:
		r.check(bytes.Equal(got, s.want), "sweep CSV differs from results_ci.csv")
	}
	var cells []float64
	for i, ln := range c.lines {
		if strings.HasPrefix(ln, "  ") && strings.Contains(ln, "cycles=") {
			cells = append(cells, c.stamps[i])
		}
	}
	vals := map[string]float64{
		"wall_s":            c.wall,
		"cpu_s":             c.cpu,
		"sim_mcycles_per_s": csvCycles(got) / c.wall / 1e6,
		"peak_rss_mb":       c.rssMB,
		"harness.pool_eff":  c.cpu / (2 * c.wall),
	}
	// The tail is the time one worker ran alone: from the second-to-last
	// cell's finish to the end of the sweep.
	if n := len(cells); n >= 2 {
		vals["harness.tail_s"] = c.wall - cells[n-2]
	}
	return c, vals
}

// pass runs the sweep between two halves of the set-up samples, so that
// they span the pass as the host's speed drifts.
func (s *sweepInstance) pass(r *run) (map[string]float64, error) {
	setups := s.shortRuns(r, sweepShortRuns/2)
	c, vals := s.sweep(r)
	if c.err == nil {
		setups = append(setups, c.firstLine)
	}
	setups = append(setups, s.shortRuns(r, sweepShortRuns-sweepShortRuns/2)...)
	vals["setup_s"] = median(setups)
	return vals, nil
}

// shortRuns takes n set-up samples: prismbench's start until its first
// progress line. The line is printed before any cell runs, so these
// one-cell sweeps use the mini size.
func (s *sweepInstance) shortRuns(r *run, n int) []float64 {
	var setups []float64
	for i := 0; i < n; i++ {
		c := runChild(s.e, "prismbench", "-exp", "fig7", "-size", "mini", "-j", "2", "-apps", "fft", "-pols", "SCOMA")
		if r.check(c.err == nil && len(c.lines) > 0, "one-cell sweep: %v", c.err) {
			setups = append(setups, c.firstLine)
		}
	}
	return setups
}

// traced reruns the sweep with per-cell metrics exports and sums their
// counters; the extra wall time is the exports' overhead.
func (s *sweepInstance) traced(r *run, _ map[string]float64) error {
	dir := filepath.Join(s.e.tmp, "sweep-metrics")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	c, vals := s.sweep(r, "-metrics", dir)
	if c.err != nil {
		return nil // counted as a failed operation by run
	}
	cnt, err := readExports(dir)
	if err != nil {
		return err
	}
	for k, v := range layerCounts(cnt) {
		r.layers[k] = v
	}
	r.layers["trace.overhead_frac"] = vals["wall_s"]/r.value("host.wall_s") - 1
	return nil
}

// csvCycles sums the cycles column of a sweep CSV.
func csvCycles(data []byte) float64 {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(recs) < 2 {
		return 0
	}
	var sum float64
	for _, rec := range recs[1:] {
		v, err := strconv.ParseFloat(rec[2], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// exportFile is the part of a metrics export the benchmark reads.
type exportFile struct {
	Points []struct {
		Component string `json:"component"`
		Name      string `json:"name"`
		Kind      string `json:"kind"`
		Value     uint64 `json:"value"`
	} `json:"points"`
}

func (x exportFile) addTo(c counters) {
	for _, p := range x.Points {
		c.add(p.Component, p.Name, p.Kind, p.Value)
	}
}

// readExports sums the counters of every metrics export in dir.
func readExports(dir string) (counters, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no metrics exports in %s", dir)
	}
	c := counters{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var x exportFile
		if err := json.Unmarshal(data, &x); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		x.addTo(c)
	}
	return c, nil
}
