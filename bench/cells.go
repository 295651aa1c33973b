package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prism"
	"prism/workloads"
)

// cell is one in-process simulation at ci size on the sequential
// engine.
type cell struct {
	app, policy string
	capped      bool // page-cache caps from the SCOMA sizing pass
	lossy       bool // seeded lossy fabric with the recovery transport
}

func (c cell) String() string {
	if c.lossy {
		return c.app + "/" + c.policy + "+lossy"
	}
	return c.app + "/" + c.policy
}

// setupRepeats is how many extra times each pass of a cells workload
// builds all its machines and workloads, untimed by the pass. A pass's
// set-up time is the median of these samples; taking them in every
// pass spreads them over the run, as the host's speed drifts.
const setupRepeats = 20

// cellsInstance runs a fixed list of cells per pass.
type cellsInstance struct {
	e      *env
	cells  []cell
	caps   []int
	faults string
	ref    map[string][]string
	first  map[string]prism.Results
}

// openCells is ci-cells: prismsim's single-cell wait on the layers every
// run pays for. No page-outs and no recovery transport.
func openCells(e *env) (instance, error) {
	return newCells(e, []cell{
		{app: "fft", policy: "SCOMA"},
		{app: "ocean", policy: "SCOMA"},
		{app: "radix", policy: "SCOMA"},
	}, nil, "")
}

// openStress is ci-stress: ci-cells' heaviest app again, once under
// Dyn-LRU with real page-outs and once on a lossy fabric, so the
// difference between the two workloads isolates kernel paging and the
// recovery transport.
func openStress(e *env) (instance, error) {
	c := &cellsInstance{e: e}
	sizing := cell{app: "radix", policy: "SCOMA"}
	m, w, err := c.build(sizing)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(w)
	if err != nil {
		return nil, fmt.Errorf("sizing pass: %w", err)
	}
	faults := fmt.Sprintf("seed=%d,drop=0.05,dup=0.02,delay=0.1,delaymax=1000", e.rng.Int63n(1<<31))
	return newCells(e, []cell{
		{app: "radix", policy: "Dyn-LRU", capped: true},
		{app: "radix", policy: "SCOMA", lossy: true},
	}, capsFor(res.MaxClientFrames), faults)
}

// capsFor derives the capped policies' page-cache caps from a SCOMA
// sizing run the way the sweep harness does: 70% of each node's peak
// client frame count, at least one frame.
func capsFor(maxClient []int) []int {
	caps := make([]int, len(maxClient))
	for i, c := range maxClient {
		caps[i] = max(1, int(float64(c)*0.70))
	}
	return caps
}

func newCells(e *env, cells []cell, caps []int, faults string) (*cellsInstance, error) {
	data, err := os.ReadFile("results_ci.csv")
	if err != nil {
		return nil, err
	}
	ref, err := parseRef(data)
	if err != nil {
		return nil, fmt.Errorf("results_ci.csv: %w", err)
	}
	return &cellsInstance{e: e, cells: cells, caps: caps, faults: faults, ref: ref, first: map[string]prism.Results{}}, nil
}

// build constructs a cell's machine and workload: the set-up a user of
// prismsim pays before the simulation starts.
func (c *cellsInstance) build(cl cell) (*prism.Machine, prism.Workload, error) {
	opts := []prism.Option{workloads.ConfigForSize(workloads.CISize), prism.WithPolicy(cl.policy)}
	if cl.capped {
		opts = append(opts, prism.WithPageCacheCaps(c.caps))
	}
	if cl.lossy {
		opts = append(opts, prism.WithFaultSpec(c.faults))
	}
	m, err := prism.New(opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cl, err)
	}
	w, err := workloads.NewWorkload(cl.app, workloads.CISize, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cl, err)
	}
	return m, w, nil
}

// pass times the cells first, from the heap measure has just collected,
// and then takes the extra set-up samples, whose garbage would
// otherwise be collected during the timed runs.
func (c *cellsInstance) pass(r *run) (map[string]float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var setup, wall, cpu, cycles float64
	for _, i := range c.e.rng.Perm(len(c.cells)) {
		cl := c.cells[i]
		t := time.Now()
		m, w, err := c.build(cl)
		if err != nil {
			return nil, err
		}
		setup += time.Since(t).Seconds()
		cpu0 := cpuSeconds()
		t = time.Now()
		res, err := m.Run(w)
		wall += time.Since(t).Seconds()
		cpu += cpuSeconds() - cpu0
		cycles += float64(res.Cycles)
		c.verify(r, cl, res, err)
	}
	runtime.ReadMemStats(&after)
	vals := map[string]float64{
		"wall_s":            wall,
		"cpu_s":             cpu,
		"sim_mcycles_per_s": cycles / wall / 1e6,
		"peak_rss_mb":       selfPeakRSSMB(),
		"host.alloc_mb":     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
	setups := []float64{setup}
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		for _, cl := range c.cells {
			if _, _, err := c.build(cl); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	vals["setup_s"] = median(setups)
	return vals, nil
}

// verify checks one cell run: it succeeded, it reproduces the cell's
// first run exactly, and a fault-free cell matches every column of its
// results_ci.csv row.
func (c *cellsInstance) verify(r *run, cl cell, res prism.Results, err error) {
	first, seen := c.first[cl.String()]
	problem := ""
	switch {
	case err != nil:
		problem = err.Error()
	case seen && !reflect.DeepEqual(first, res):
		problem = "results differ from the cell's first run"
	case !cl.lossy:
		problem = matchRow(c.ref, cl.app, cl.policy, res)
	}
	if err == nil && !seen {
		c.first[cl.String()] = res
	}
	r.check(problem == "", "%s: %s", cl, problem)
}

// refHeader is the column row of results_ci.csv.
var refHeader = []string{"app", "policy", "cycles", "remote_misses", "page_outs", "real_frames",
	"imag_frames", "utilization", "upgrades", "writebacks", "invalidations", "page_faults",
	"net_messages", "net_bytes"}

// parseRef indexes a reference CSV by "app,policy".
func parseRef(data []byte) (map[string][]string, error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || strings.Join(recs[0], ",") != strings.Join(refHeader, ",") {
		return nil, fmt.Errorf("unexpected header")
	}
	rows := map[string][]string{}
	for _, rec := range recs[1:] {
		rows[rec[0]+","+rec[1]] = rec
	}
	return rows, nil
}

// rowOf renders a cell's results as a reference CSV row.
func rowOf(app, policy string, r prism.Results) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return []string{app, policy, u(uint64(r.Cycles)), u(r.RemoteMisses), u(r.ClientPageOuts),
		u(r.RealFrames), u(r.ImagFrames), strconv.FormatFloat(r.Utilization, 'f', 4, 64),
		u(r.Upgrades), u(r.WritebacksSent), u(r.InvsSent), u(r.PageFaults),
		u(r.NetMessages), u(r.NetBytes)}
}

// matchRow compares a cell's results with its reference row, column by
// column. It returns "" on a match, else what differs.
func matchRow(ref map[string][]string, app, policy string, r prism.Results) string {
	want, ok := ref[app+","+policy]
	if !ok {
		return "no reference row for " + app + "," + policy
	}
	var diffs []string
	for i, got := range rowOf(app, policy, r) {
		if got != want[i] {
			diffs = append(diffs, fmt.Sprintf("%s=%s want %s", refHeader[i], got, want[i]))
		}
	}
	if diffs == nil {
		return ""
	}
	return "reference row differs: " + strings.Join(diffs, ", ")
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfPeakRSSMB is the process's peak resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
