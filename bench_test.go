// Benchmarks that regenerate every table and figure of the paper (at
// MiniSize so the default `go test -bench=.` stays tractable — use
// cmd/prismbench -size ci|paper for full-scale regeneration), plus
// ablation benches for the design choices DESIGN.md calls out.
//
// Each bench prints its rows once (the series the paper reports) and
// reports headline numbers as benchmark metrics.
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

// runApp executes one app×policy at mini size.
func runApp(b *testing.B, app, pol string, caps []int) prism.Results {
	b.Helper()
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	cfg.Policy = prism.MustPolicy(pol)
	cfg.PageCacheCaps = caps
	m, err := prism.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.NewWorkload(app, workloads.MiniSize, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run(w)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// capsFrom computes SCOMA-70 page-cache caps from a SCOMA pass.
func capsFrom(res prism.Results) []int {
	caps := make([]int, len(res.MaxClientFrames))
	for i, c := range res.MaxClientFrames {
		caps[i] = c * 7 / 10
		if caps[i] < 1 {
			caps[i] = 1
		}
	}
	return caps
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

// BenchmarkFig7 regenerates one Figure 7 row per application: the
// six-policy normalized execution times.
func BenchmarkFig7(b *testing.B) {
	for _, app := range workloads.Names() {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scoma := runApp(b, app, "SCOMA", nil)
				caps := capsFrom(scoma)
				row := fmt.Sprintf("%-11s", app)
				worst := 1.0
				for _, pol := range harness.PolicyOrder {
					var res prism.Results
					switch pol {
					case "SCOMA":
						res = scoma
					case "LANUMA":
						res = runApp(b, app, pol, nil)
					default:
						res = runApp(b, app, pol, caps)
					}
					norm := float64(res.Cycles) / float64(scoma.Cycles)
					if norm > worst {
						worst = norm
					}
					row += fmt.Sprintf(" %9.2f", norm)
				}
				b.ReportMetric(worst, "worst-normalized-time")
				once("Figure 7 row: "+app, row)
			}
		})
	}
}

// BenchmarkTable3PageConsumption regenerates Table 3 (frames allocated
// and utilization under SCOMA vs LANUMA).
func BenchmarkTable3PageConsumption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-11s %12s %12s %10s %10s\n", "app", "SCOMA frames", "LANUMA frames", "SCOMA util", "LANUMA util")
		for _, app := range workloads.Names() {
			s := runApp(b, app, "SCOMA", nil)
			l := runApp(b, app, "LANUMA", nil)
			out += fmt.Sprintf("%-11s %12d %12d %10.3f %10.3f\n",
				app, s.RealFrames, l.RealFrames, s.Utilization, l.Utilization)
		}
		once("Table 3", out)
	}
}

// BenchmarkTable4StaticConfigs regenerates Table 4 (remote misses of
// the static configurations and SCOMA-70 page-outs).
func BenchmarkTable4StaticConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-11s %10s %10s %10s %10s\n", "app", "SCOMA", "LANUMA", "SCOMA-70", "page-outs")
		for _, app := range workloads.Names() {
			s := runApp(b, app, "SCOMA", nil)
			l := runApp(b, app, "LANUMA", nil)
			s70 := runApp(b, app, "SCOMA-70", capsFrom(s))
			out += fmt.Sprintf("%-11s %10d %10d %10d %10d\n",
				app, s.RemoteMisses, l.RemoteMisses, s70.RemoteMisses, s70.ClientPageOuts)
		}
		once("Table 4", out)
	}
}

// BenchmarkTable5AdaptiveConfigs regenerates Table 5 (remote misses
// and page-outs under the adaptive policies).
func BenchmarkTable5AdaptiveConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-11s %10s %10s %10s %9s %9s\n", "app", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "PO(Util)", "PO(LRU)")
		for _, app := range workloads.Names() {
			caps := capsFrom(runApp(b, app, "SCOMA", nil))
			fc := runApp(b, app, "Dyn-FCFS", caps)
			ut := runApp(b, app, "Dyn-Util", caps)
			lr := runApp(b, app, "Dyn-LRU", caps)
			out += fmt.Sprintf("%-11s %10d %10d %10d %9d %9d\n",
				app, fc.RemoteMisses, ut.RemoteMisses, lr.RemoteMisses,
				ut.ClientPageOuts, lr.ClientPageOuts)
		}
		once("Table 5", out)
	}
}

// BenchmarkPITSweep regenerates the §4.3 PIT-access-time study on a
// representative subset (Barnes — the most PIT-sensitive app in the
// paper — plus FFT and LU).
func BenchmarkPITSweep(b *testing.B) {
	apps := []string{"barnes", "fft", "lu"}
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%-11s %14s %14s %9s\n", "app", "SRAM cycles", "DRAM cycles", "increase")
		for _, app := range apps {
			caps := capsFrom(runApp(b, app, "SCOMA", nil))
			run := func(pitCycles uint64) prism.Results {
				cfg := workloads.ConfigForSize(workloads.MiniSize)
				cfg.Policy = prism.MustPolicy("Dyn-LRU")
				cfg.PageCacheCaps = caps
				cfg.Node.PITConfig.AccessTime = prism.Time(pitCycles)
				m, err := prism.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				w, _ := workloads.NewWorkload(app, workloads.MiniSize, nil)
				res, err := m.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			fast := run(2)
			slow := run(10)
			inc := float64(slow.Cycles)/float64(fast.Cycles) - 1
			out += fmt.Sprintf("%-11s %14d %14d %8.1f%%\n", app, fast.Cycles, slow.Cycles, inc*100)
		}
		once("PIT study (§4.3)", out)
	}
}

// BenchmarkAblationDirectoryCache compares the paper's 8K-entry
// directory cache against a nearly-disabled 64-entry one.
func BenchmarkAblationDirectoryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(entries int) prism.Results {
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy("SCOMA")
			cfg.Node.DirConfig.CacheEntries = entries
			m, _ := prism.New(cfg)
			w, _ := workloads.NewWorkload("radix", workloads.MiniSize, nil)
			res, err := m.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res
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
		caps := capsFrom(runApp(b, "radix", "SCOMA", nil))
		run := func(noFlags bool) prism.Results {
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy("SCOMA-70")
			cfg.PageCacheCaps = caps
			cfg.Kernel.NoHomeFlags = noFlags
			m, _ := prism.New(cfg)
			w, _ := workloads.NewWorkload("radix", workloads.MiniSize, nil)
			res, err := m.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		with := run(false)
		without := run(true)
		b.ReportMetric(float64(without.PageInMsgs)/float64(maxU(with.PageInMsgs, 1)), "pagein-msg-ratio")
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
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy("SCOMA")
			cfg.Node.CtrlCfg.DirClientHints = hints
			m, _ := prism.New(cfg)
			w, _ := workloads.NewWorkload("mp3d", workloads.MiniSize, nil)
			res, err := m.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		off := run(false)
		on := run(true)
		b.ReportMetric(float64(on.PITHashLookups)/float64(maxU(off.PITHashLookups, 1)), "hash-lookup-ratio")
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
		run := func(pol string) prism.Results {
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy(pol)
			cfg.PageCacheCaps = fill(cfg.Nodes, 2) // hard pressure
			m, _ := prism.New(cfg)
			w, _ := workloads.NewWorkload("barnes", workloads.MiniSize, nil)
			res, err := m.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res
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
			cfg := workloads.ConfigForSize(workloads.MiniSize)
			cfg.Policy = prism.MustPolicy("SCOMA")
			cfg.HardwareSync = hw
			m, _ := prism.New(cfg)
			w, _ := workloads.NewWorkload("water-nsq", workloads.MiniSize, nil)
			res, err := m.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		sw := run(false)
		hw := run(true)
		b.ReportMetric(float64(sw.Cycles)/float64(hw.Cycles), "syncpage-speedup")
		once("Ablation: Sync-mode pages (hardware queue locks)", fmt.Sprintf(
			"water-nsq: coherent locks %d cycles %d remote+upg; sync pages %d cycles %d remote+upg",
			sw.Cycles, sw.RemoteMisses+sw.Upgrades, hw.Cycles, hw.RemoteMisses+hw.Upgrades))
	}
}

// benchMachine runs one full mini-size machine simulation per
// iteration. ReportAllocs makes these the end-to-end gauge of the
// allocation-free event core: allocs/op is dominated by machine
// construction plus whatever the hot paths still allocate per event.
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
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Refs), "refs/run")
	}
}

// BenchmarkMachineFFT and friends time representative full-machine
// runs (one complete simulation per iteration) across the policy
// space: a regular app, an irregular one, and an adaptive policy with
// paging activity.
func BenchmarkMachineFFT(b *testing.B) { benchMachine(b, "fft", "SCOMA") }

// BenchmarkMachineLU times the blocked-LU run under LA-NUMA.
func BenchmarkMachineLU(b *testing.B) { benchMachine(b, "lu", "LANUMA") }

// BenchmarkMachineRadix times radix sort under the adaptive Dyn-LRU
// policy (exercises the paging and conversion paths).
func BenchmarkMachineRadix(b *testing.B) { benchMachine(b, "radix", "Dyn-LRU") }

// BenchmarkMachineWaterNsq times the lock-heavy water-nsq run
// (exercises the synchronization paths).
func BenchmarkMachineWaterNsq(b *testing.B) { benchMachine(b, "water-nsq", "SCOMA") }

// BenchmarkEngineEvents measures raw event throughput of the
// simulation core.
func BenchmarkEngineEvents(b *testing.B) {
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	cfg.Policy = prism.MustPolicy("SCOMA")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _ := prism.New(cfg)
		w, _ := workloads.NewWorkload("water-spa", workloads.MiniSize, nil)
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Refs), "refs/run")
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
