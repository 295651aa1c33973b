package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance identifies where and how a result set was measured.
type provenance struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	DateUTC    string `json:"date_utc"`
}

// layerValue is one per-layer metric of a result set.
type layerValue struct {
	metric
	Value float64 `json:"value"`
}

// workloadResult is one workload of a result set.
type workloadResult struct {
	Name        string        `json:"name"`
	Attempted   int           `json:"attempted"`
	Failed      int           `json:"failed"`
	FailFrac    float64       `json:"fail_frac"`
	EndToEnd    []summary     `json:"end_to_end"`
	PerLayer    []layerValue  `json:"per_layer"`
	Attribution []attribution `json:"attribution,omitempty"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet measures every named workload with runs timed passes and a
// traced pass, prints the tables and writes the result set to path.
func runSet(stdout io.Writer, e *env, names []string, runs int, path string) error {
	set := resultSet{Provenance: provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitHead:    gitHead(),
		Seed:       e.seed,
		Runs:       runs,
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
	}}
	for _, name := range names {
		r, err := measure(e, name, runs, 0, true)
		if err != nil {
			return err
		}
		w := workloadResult{Name: name, Attempted: r.attempted, Failed: r.failed, Attribution: r.attr}
		w.FailFrac = float64(r.failed) / float64(r.attempted)
		for _, m := range endToEnd {
			w.EndToEnd = append(w.EndToEnd, summarize(m, r.samples(m.Name)))
		}
		for _, m := range perLayer {
			w.PerLayer = append(w.PerLayer, layerValue{m, r.value(m.Name)})
		}
		set.Workloads = append(set.Workloads, w)
		printWorkload(stdout, w)
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "== %s: %d operations, %d failed\n", r.Name, r.Attempted, r.Failed)
	fmt.Fprintf(w, "%-20s %-9s %12s %12s %12s %12s %12s %3s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
	for _, s := range r.EndToEnd {
		fmt.Fprintf(w, "%-20s %-9s %12.5g %12.5g %12.5g %12.5g %12.5g %3d\n", s.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, l := range r.PerLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", l.Name, l.Value, l.Unit)
	}
	for _, a := range r.Attribution {
		fmt.Fprintf(w, "\n%s", a.table())
	}
	fmt.Fprintln(w)
}
