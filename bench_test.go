// Benchmarks that regenerate every table and figure of the paper (at
// mini size so the default `go test -bench=.` stays tractable — use
// cmd/prismbench -size ci|paper for full-scale regeneration), plus
// ablation benches for the design choices DESIGN.md calls out. The
// layer and machine benchmarks are in internal/benchsuite.
//
// Each bench prints its tables once and reports headline numbers as
// benchmark metrics.
package prism_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"prism"
	"prism/internal/core"
	"prism/internal/harness"
	"prism/internal/latency"
	"prism/workloads"
)

var printOnce sync.Map

// once prints s a single time per key across bench iterations.
func once(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n=== %s ===\n%s\n", key, s)
	}
}

// runMini runs cell c at mini size, on its machine configuration as
// tweak (when non-nil) changes it.
func runMini(b *testing.B, c harness.Cell, tweak func(*prism.Config)) prism.Results {
	b.Helper()
	c.Size = "mini"
	cfg, err := c.Config()
	if err != nil {
		b.Fatal(err)
	}
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := prism.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := c.Workload()
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run(w)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Latencies regenerates Table 1 (uncontended miss
// latencies and paging overheads) and reports the mean measured/paper
// ratio as a metric.
func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := latency.Measure(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, r := range rows {
			ratio += float64(r.Measured) / float64(r.Paper)
		}
		b.ReportMetric(ratio/float64(len(rows)), "ratio-vs-paper")
		once("Table 1", latency.Format(rows))
	}
}

// BenchmarkTable2Inventory prints the application inventory.
func BenchmarkTable2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		once("Table 2", harness.FormatTable2())
	}
}

// BenchmarkFig7 regenerates Figure 7 and Tables 3–5 from one mini
// sweep: the blocks `prismbench -exp fig7,table3,table4,table5 -size
// mini` prints.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := harness.Run(harness.Options{Spec: harness.Spec{Size: "mini"}})
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for _, ar := range runs {
			for _, r := range ar.ByPol {
				worst = max(worst, float64(r.Cycles)/float64(ar.Sizing.Cycles))
			}
		}
		b.ReportMetric(worst, "worst-normalized-time")
		once("Figure 7", harness.FormatFig7(runs))
		once("Table 3", harness.FormatTable3(runs))
		once("Table 4", harness.FormatTable4(runs))
		once("Table 5", harness.FormatTable5(runs))
	}
}

// BenchmarkPITSweep regenerates the §4.3 PIT-access-time study on a
// representative subset (Barnes — the most PIT-sensitive app in the
// paper — plus FFT and LU): the block `prismbench -exp pit -size mini
// -apps barnes,fft,lu` prints.
func BenchmarkPITSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunPITSweep(harness.Options{Spec: harness.Spec{
			Size: "mini",
			Apps: []string{"barnes", "fft", "lu"},
		}})
		if err != nil {
			b.Fatal(err)
		}
		once("PIT study (§4.3)", harness.FormatPITSweep(rows))
	}
}

// BenchmarkAblationDirectoryCache compares the paper's 8K-entry
// directory cache against a nearly-disabled 64-entry one.
func BenchmarkAblationDirectoryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(entries int) prism.Results {
			return runMini(b, harness.Cell{App: "radix", Policy: "SCOMA"}, func(cfg *prism.Config) {
				cfg.Node.DirConfig.CacheEntries = entries
			})
		}
		big := run(8192)
		small := run(64)
		slow := float64(small.Cycles) / float64(big.Cycles)
		b.ReportMetric(slow, "slowdown-without-dir-cache")
		once("Ablation: directory cache", fmt.Sprintf(
			"radix: 8K-entry cache %d cycles (%d hits/%d misses); 64-entry %d cycles (%.3fx)",
			big.Cycles, big.DirCacheHits, big.DirCacheMisses, small.Cycles, slow))
	}
}

// BenchmarkAblationHomeFlags measures the home-page-status flag
// optimization (§3.3) under paging pressure.
func BenchmarkAblationHomeFlags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := harness.Cell{App: "radix", Policy: "SCOMA-70", Size: "mini"}.Sized(0)
		if err != nil {
			b.Fatal(err)
		}
		run := func(noFlags bool) prism.Results {
			return runMini(b, c, func(cfg *prism.Config) { cfg.Kernel.NoHomeFlags = noFlags })
		}
		with := run(false)
		without := run(true)
		b.ReportMetric(float64(without.PageInMsgs)/float64(max(with.PageInMsgs, 1)), "pagein-msg-ratio")
		once("Ablation: home-page-status flags", fmt.Sprintf(
			"radix/SCOMA-70: with flags %d page-in msgs (%d flag hits), %d cycles; without %d msgs, %d cycles",
			with.PageInMsgs, with.FlagHits, with.Cycles, without.PageInMsgs, without.Cycles))
	}
}

// BenchmarkAblationDirClientHints measures storing client frame hints
// in directory entries (the §4.3 trade-off: fewer PIT hash lookups on
// invalidations for larger directory entries).
func BenchmarkAblationDirClientHints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(hints bool) prism.Results {
			return runMini(b, harness.Cell{App: "mp3d", Policy: "SCOMA"}, func(cfg *prism.Config) {
				cfg.Node.CtrlCfg.DirClientHints = hints
			})
		}
		off := run(false)
		on := run(true)
		b.ReportMetric(float64(on.PITHashLookups)/float64(max(off.PITHashLookups, 1)), "hash-lookup-ratio")
		once("Ablation: directory client-frame hints", fmt.Sprintf(
			"mp3d: hints off %d hash lookups, %d cycles; hints on %d hash lookups, %d cycles",
			off.PITHashLookups, off.Cycles, on.PITHashLookups, on.Cycles))
	}
}

// BenchmarkAblationMigration measures lazy page migration on a
// home-affinity-skewed access pattern (the §3.5 motivation).
func BenchmarkAblationMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(daemon bool) prism.Results {
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy("LANUMA")
			m, _ := prism.New(cfg)
			if daemon {
				prism.AttachMigration(m, 50_000, prism.DefaultMigrationPolicy)
			}
			sc := workloads.DefaultSynthConfig()
			sc.SharedBytes = 32 << 10
			sc.RandomPct = 0
			sc.Iters = 12
			res, err := m.Run(workloads.NewSynth(sc))
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		fixed := run(false)
		migr := run(true)
		speedup := float64(fixed.Cycles) / float64(migr.Cycles)
		b.ReportMetric(speedup, "migration-speedup")
		once("Ablation: lazy page migration", fmt.Sprintf(
			"synth/LANUMA: fixed homes %d cycles, %d remote; with daemon %d cycles, %d remote, %d forwards (%.2fx)",
			fixed.Cycles, fixed.RemoteMisses, migr.Cycles, migr.RemoteMisses, migr.Forwards, speedup))
	}
}

// BenchmarkAblationDynBoth measures the bidirectional policy against
// Dyn-LRU on the reuse pathology the paper's conclusion discusses.
func BenchmarkAblationDynBoth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		caps := fill(workloads.ConfigForSize(workloads.MiniSize).Nodes, 2) // hard pressure
		run := func(pol string) prism.Results {
			return runMini(b, harness.Cell{App: "barnes", Policy: pol, Caps: caps}, nil)
		}
		lru := run("Dyn-LRU")
		both := run("Dyn-Both")
		b.ReportMetric(float64(lru.Cycles)/float64(both.Cycles), "dynboth-speedup")
		once("Ablation: Dyn-Both (bidirectional adaptation)", fmt.Sprintf(
			"barnes: Dyn-LRU %d cycles %d remote (%d conv); Dyn-Both %d cycles %d remote (%d conv, %d reverse)",
			lru.Cycles, lru.RemoteMisses, lru.Conversions,
			both.Cycles, both.RemoteMisses, both.Conversions, both.ReverseConvs))
	}
}

// BenchmarkAblationSyncPages compares coherent test-and-test&set locks
// against Sync-mode page queue locks (§3.2's synchronization-page
// extension) on the lock-heaviest application.
func BenchmarkAblationSyncPages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(hw bool) prism.Results {
			return runMini(b, harness.Cell{App: "water-nsq", Policy: "SCOMA"}, func(cfg *prism.Config) {
				cfg.HardwareSync = hw
			})
		}
		sw := run(false)
		hw := run(true)
		b.ReportMetric(float64(sw.Cycles)/float64(hw.Cycles), "syncpage-speedup")
		once("Ablation: Sync-mode pages (hardware queue locks)", fmt.Sprintf(
			"water-nsq: coherent locks %d cycles %d remote+upg; sync pages %d cycles %d remote+upg",
			sw.Cycles, sw.RemoteMisses+sw.Upgrades, hw.Cycles, hw.RemoteMisses+hw.Upgrades))
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
