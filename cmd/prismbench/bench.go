// In-process microbenchmarks and the committed host-performance
// baseline (BENCH_10.json).
//
// `prismbench -bench all` runs the suite via testing.Benchmark and
// prints a table; `-benchjson FILE` writes the results (plus the
// sweep's wall time when a sweep ran in the same invocation) as JSON;
// `-benchcheck FILE` re-runs the suite and fails if any benchmark's
// allocs/op regressed above the committed baseline — the CI gate that
// keeps the event core allocation-free.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"prism"
	"prism/internal/directory"
	"prism/internal/ipc"
	"prism/internal/kernel"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/node"
	"prism/internal/pit"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/internal/timing"
	"prism/workloads"
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

// benchSuite maps benchmark names to bodies. Everything except the
// Machine* entries must stay 0 allocs/op; the Machine* entries run one
// full mini-size simulation per iteration.
var benchSuite = map[string]func(b *testing.B){
	"EventQueue":       benchEventQueue,
	"CoroutineHandoff": benchCoroutineHandoff,
	"PITLookup":        benchPITLookup,
	"PITReverseHash":   benchPITReverseHash,
	"DirectoryAccess":  benchDirectoryAccess,
	"KernelPTEHit":     benchKernelPTEHit,
	"MachineFFT":       func(b *testing.B) { benchMachine(b, "fft", "SCOMA") },
	"MachineRadix":     func(b *testing.B) { benchMachine(b, "radix", "Dyn-LRU") },
	"MachineOcean":     func(b *testing.B) { benchMachine(b, "ocean", "SCOMA") },
}

// benchEventQueue mirrors internal/sim's BenchmarkEventQueue: raw
// schedule+dispatch throughput of the specialized heap.
func benchEventQueue(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Time(i%64), func() {})
		if e.Pending() > 1024 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// benchCoroutineHandoff mirrors internal/sim's
// BenchmarkCoroutineHandoff: one block/step round trip.
func benchCoroutineHandoff(b *testing.B) {
	e := sim.NewEngine()
	c := sim.NewCoro("bench")
	c.Start(func() {
		for {
			c.Block()
		}
	})
	e.ScheduleStep(0, c)
	e.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// benchPITLookup mirrors internal/pit's BenchmarkLookup: the forward
// translation behind every bus transaction, on the dense table.
func benchPITLookup(b *testing.B) {
	p := benchPITTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e, _ := p.Lookup(mem.FrameID(i & 255)); e == nil {
			b.Fatal("missing entry")
		}
	}
}

// benchPITReverseHash mirrors internal/pit's BenchmarkReverseLookupHash:
// reverse translation with no frame guess, through the open-addressing
// reverse table.
func benchPITReverseHash(b *testing.B) {
	p := benchPITTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := mem.GPage{Seg: 1, Page: uint32(i & 255)}
		if _, ok, _ := p.ReverseLookup(g, 0, false); !ok {
			b.Fatal("hash path failed")
		}
	}
}

func benchPITTable() *pit.PIT {
	p := pit.New(0, mem.DefaultGeometry, pit.DefaultConfig)
	for i := 0; i < 256; i++ {
		p.Insert(mem.FrameID(i), pit.Entry{
			Mode:  pit.ModeSCOMA,
			GPage: mem.GPage{Seg: 1, Page: uint32(i)},
			Caps:  mem.AllNodes(),
		})
	}
	return p
}

// benchDirectoryAccess mirrors internal/directory's BenchmarkAccess:
// the home side's per-request line lookup on the paged slice arena.
func benchDirectoryAccess(b *testing.B) {
	d := directory.New(0, mem.DefaultGeometry, directory.DefaultConfig)
	const pages = 64
	for i := 0; i < pages; i++ {
		d.AddPage(mem.GPage{Seg: 1, Page: uint32(i)}, 0)
	}
	lpp := mem.DefaultGeometry.LinesPerPage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e, _, ok := d.Access(mem.GPage{Seg: 1, Page: uint32(i % pages)}, i%lpp); !ok || e == nil {
			b.Fatal("missing directory entry")
		}
	}
}

// benchKernelPTEHit is the fault path's hot translation on a software
// TLB hit. One node is built (the kernel's private-fault path needs
// its bound controller), one private page mapped, then PTE is hammered.
func benchKernelPTEHit(b *testing.B) {
	e := sim.NewEngine()
	geom := mem.DefaultGeometry
	tm := timing.Default()
	reg := ipc.NewRegistry(geom, 1)
	net := network.New(e, 1, network.DefaultConfig)
	k := kernel.New(e, 0, geom, &tm, kernel.Config{RealFrames: 256}, reg, net, policy.SCOMA{})
	n := node.New(e, 0, geom, &tm, node.DefaultConfig(geom), net, reg, k)
	net.Attach(0, n)
	const vsid = mem.VSID(2)
	k.AttachPrivate(vsid)
	vp := mem.VPage{Seg: vsid, Page: 0}
	mapped := false
	k.HandleFault(vp, func(at sim.Time, f mem.FrameID, ok bool) { mapped = ok })
	e.RunUntilIdle()
	if !mapped {
		b.Fatal("private fault did not map the page")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := k.PTE(vp); !ok {
			b.Fatal("lost mapping")
		}
	}
}

// benchMachine runs one full mini-size simulation per iteration.
func benchMachine(b *testing.B, app, pol string) {
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	cfg.Policy = prism.MustPolicy(pol)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := prism.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w, err := workloads.NewWorkload(app, workloads.MiniSize, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// runBenchSuite executes the selected benchmarks (comma list or
// "all") and returns their results in name order.
func runBenchSuite(sel string) ([]BenchResult, error) {
	var names []string
	if sel == "all" {
		for n := range benchSuite {
			names = append(names, n)
		}
		sort.Strings(names)
	} else {
		for _, n := range strings.Split(sel, ",") {
			n = strings.TrimSpace(n)
			if _, ok := benchSuite[n]; !ok {
				return nil, fmt.Errorf("unknown benchmark %q (have: %s)", n, strings.Join(benchNames(), ","))
			}
			names = append(names, n)
		}
	}
	var out []BenchResult
	for _, n := range names {
		r := testing.Benchmark(benchSuite[n])
		out = append(out, BenchResult{
			Name:        n,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out, nil
}

func benchNames() []string {
	var names []string
	for n := range benchSuite {
		names = append(names, n)
	}
	sort.Strings(names)
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
