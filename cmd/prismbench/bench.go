// In-process microbenchmarks and the committed host-performance
// baseline (BENCH_10.json).
//
// `prismbench -bench all` runs every row of internal/benchsuite via
// testing.Benchmark and prints a table; `-benchjson FILE` writes the
// results (plus the sweep's wall time when a sweep ran in the same
// invocation) as JSON;
// `-benchcheck FILE` re-runs the suite and fails if any benchmark's
// allocs/op regressed above the committed baseline — the CI gate that
// keeps the event core allocation-free.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"prism/internal/benchsuite"
)

// BenchResult is one benchmark's headline numbers.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// SweepTiming records the wall time of the policy sweep run in the
// same invocation.
type SweepTiming struct {
	Exp    string `json:"exp"`
	Size   string `json:"size"`
	Jobs   int    `json:"jobs"`
	WallMS int64  `json:"wall_ms"`
}

// BenchReport is the schema of BENCH_10.json.
type BenchReport struct {
	Note       string        `json:"note,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
	Sweep      *SweepTiming  `json:"sweep,omitempty"`
	// Previous preserves the numbers measured before the last
	// intentional performance change, for the speedup record.
	Previous *BenchReport `json:"previous,omitempty"`
}

// selectBenchmarks resolves the -bench list (comma list or "all") to
// rows of benchsuite.All, rejecting any name that is not a row.
func selectBenchmarks(sel string) ([]benchsuite.Bench, error) {
	rows := benchsuite.All()
	if sel == "all" {
		return rows, nil
	}
	var picked []benchsuite.Bench
	for _, n := range strings.Split(sel, ",") {
		n = strings.TrimSpace(n)
		i := slices.IndexFunc(rows, func(r benchsuite.Bench) bool { return r.Name == n })
		if i < 0 {
			return nil, fmt.Errorf("unknown benchmark %q (have: %s)", n, strings.Join(benchNames(), ","))
		}
		picked = append(picked, rows[i])
	}
	return picked, nil
}

// runBenchSuite executes rows and returns their results in order.
func runBenchSuite(rows []benchsuite.Bench) []BenchResult {
	var out []BenchResult
	for _, r := range rows {
		res := testing.Benchmark(r.Run)
		out = append(out, BenchResult{
			Name:        r.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
}

func benchNames() []string {
	var names []string
	for _, r := range benchsuite.All() {
		names = append(names, r.Name)
	}
	return names
}

// formatBench renders results as a table.
func formatBench(rs []BenchResult) string {
	out := fmt.Sprintf("%-18s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range rs {
		out += fmt.Sprintf("%-18s %14.1f %12d %12d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return out
}

// writeBenchJSON writes the report to path.
func writeBenchJSON(path string, rep BenchReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// checkBenchBaseline compares measured allocation behavior against the
// committed baseline and reports every regression. Only allocation
// statistics are gated — ns/op is too noisy on shared CI runners.
// Allocs/op gets a 1% relative tolerance, which absorbs the few-alloc
// jitter of full-machine benchmarks (map growth timing) while still
// gating the 0 allocs/op engine benchmarks exactly (1% of zero is
// zero). Bytes/op gets a looser 10% tolerance: byte counts wobble more
// than counts (a single slab or table doubling landing on a different
// iteration moves kilobytes), but a steady-state allocation leak still
// trips it long before it trips allocs/op rounding.
func checkBenchBaseline(path string, measured []BenchResult) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base BenchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseline := map[string]BenchResult{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	var regressions []string
	for _, m := range measured {
		b, ok := baseline[m.Name]
		if !ok {
			continue
		}
		limit := b.AllocsPerOp + b.AllocsPerOp/100
		if m.AllocsPerOp > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op, baseline %d (limit %d)", m.Name, m.AllocsPerOp, b.AllocsPerOp, limit))
		}
		byteLimit := b.BytesPerOp + b.BytesPerOp/10
		if m.BytesPerOp > byteLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d B/op, baseline %d (limit %d)", m.Name, m.BytesPerOp, b.BytesPerOp, byteLimit))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("allocation regressions vs %s:\n  %s", path, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "benchcheck: allocs/op and bytes/op within baseline %s\n", path)
	return nil
}
