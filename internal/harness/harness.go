// Package harness drives the paper's experiments end to end: the
// two-pass SCOMA→SCOMA-70 page-cache sizing, the six-policy runs
// behind Figure 7 and Tables 3–5, the Table 1 microbenchmark, the §4.3
// PIT-access-time study, and the design-choice ablations.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"prism"
	"prism/internal/core"
	"prism/internal/latency"
	"prism/internal/metrics"
	"prism/internal/sim"
)

// PolicyOrder is the paper's Figure 7 legend order.
var PolicyOrder = []string{"SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU"}

// Options is a sweep: the Spec it runs plus the run-time choices that
// cannot change a result.
type Options struct {
	Spec
	// Log, when non-nil, receives progress lines. Writes are
	// serialized by an internal mutex, so lines stay atomic even
	// when runs execute concurrently.
	Log io.Writer
	// Workers bounds how many runs execute concurrently: 0 means
	// GOMAXPROCS. Every run owns a private Machine, so results are
	// bit-identical at any width.
	Workers int
	// MetricsDir, when non-empty, makes every sweep cell write its
	// full telemetry export to <MetricsDir>/<Cell.Name>.json
	// (metrics.Export, analyzed with prismstat), with interval samples
	// when the Spec asks for them. Export is pure observation: the
	// sweep's results and CSV are byte-identical with or without it.
	// The PIT sweep ignores MetricsDir (it runs the same app × policy
	// cell twice, which would collide).
	MetricsDir string
	// Context, when non-nil, lets a caller abort an in-flight sweep.
	// Cancellation is observed at cell boundaries: the cells already
	// running finish (a simulation cannot be interrupted mid-run
	// without losing determinism), no new cell starts, and Run returns
	// the completed cells as partial results together with the
	// context's error. nil behaves like context.Background().
	Context context.Context

	logMu *sync.Mutex
}

// ctx resolves the sweep context.
func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// prepare normalizes the spec — so every tool rejects and
// canonicalizes the same inputs — and readies the log mutex.
func (o *Options) prepare() error {
	if err := o.Normalize(); err != nil {
		return err
	}
	o.logMu = &sync.Mutex{}
	return nil
}

// workers resolves the effective worker count.
func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Log == nil {
		return
	}
	if o.logMu != nil {
		o.logMu.Lock()
		defer o.logMu.Unlock()
	}
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// AppRun holds one application's results across policies.
type AppRun struct {
	App string
	// Sizing is the app's SCOMA sizing run: Figure 7's normalization
	// base and the source of Caps. It is ByPol["SCOMA"] too when SCOMA
	// was requested.
	Sizing prism.Results
	ByPol  map[string]prism.Results // the requested policies' results
	Caps   []int                    // per-node page-cache caps used by capped policies
}

// runOne executes one sweep cell, writing its telemetry export to
// metricsDir unless that is empty, and logs its progress line.
func (o *Options) runOne(c Cell, metricsDir string) (prism.Results, error) {
	res, err := RunCell(c, metricsDir)
	if err != nil {
		return res, err
	}
	o.logf("  %-10s %-9s cycles=%-12d remote=%-9d pageouts=%-6d frames=%d+%d",
		c.App, c.Policy, res.Cycles, res.RemoteMisses, res.ClientPageOuts, res.RealFrames, res.ImagFrames)
	return res, nil
}

// Run executes the full sweep: for each app, a SCOMA pass sizes the
// page cache (CapFraction × per-node max client frames), then every
// requested policy runs. The SCOMA pass is reused as the SCOMA result
// when requested; otherwise it is kept only as AppRun.Sizing, so the
// CSV and the telemetry exports hold the requested policies alone.
//
// The sweep runs on a worker pool (see parallel.go) in two waves:
// pass 1 executes every app's SCOMA sizing run, pass 2 the remaining
// app × policy cells. Each cell builds a private Machine, so the
// aggregation — and the resulting CSV — is byte-identical at any
// worker count; with one worker the cells run in index order.
//
// When Options.Context is canceled mid-sweep, Run stops at the next
// cell boundary and returns the cells completed so far (apps whose
// ByPol map may cover only a subset of the requested policies)
// alongside the context's error, so callers can report partial
// progress instead of losing the whole sweep.
func Run(opts Options) ([]AppRun, error) {
	if err := opts.prepare(); err != nil {
		return nil, err
	}
	return runPool(&opts)
}

// ---------------------------------------------------------------------------
// Formatting: the paper's figures and tables
// ---------------------------------------------------------------------------

// FormatFig7 renders execution time normalized to SCOMA (Figure 7).
func FormatFig7(runs []AppRun) string {
	tb := metrics.NewTable(append([]string{"app"}, PolicyOrder...)...)
	for _, ar := range runs {
		base := ar.Sizing.Cycles
		row := []string{ar.App}
		for _, p := range PolicyOrder {
			r, ok := ar.ByPol[p]
			if !ok || base == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(r.Cycles)/float64(base)))
		}
		tb.Row(row...)
	}
	return "Figure 7: execution time normalized to SCOMA\n" + tb.String()
}

// FormatTable3 renders page consumption and utilization (Table 3).
func FormatTable3(runs []AppRun) string {
	tb := metrics.NewTable("app", "SCOMA frames", "LANUMA frames", "SCOMA util", "LANUMA util")
	for _, ar := range runs {
		s, l := ar.Sizing, ar.ByPol["LANUMA"]
		tb.Row(ar.App,
			fmt.Sprintf("%d", s.RealFrames), fmt.Sprintf("%d", l.RealFrames),
			fmt.Sprintf("%.3f", s.Utilization), fmt.Sprintf("%.3f", l.Utilization))
	}
	return "Table 3: page frames allocated and average utilization\n" + tb.String()
}

// FormatTable4 renders remote misses for the static configurations and
// SCOMA-70's page-outs (Table 4).
func FormatTable4(runs []AppRun) string {
	tb := metrics.NewTable("app", "SCOMA", "LANUMA", "SCOMA-70", "page-outs")
	for _, ar := range runs {
		tb.Row(ar.App,
			fmt.Sprintf("%d", ar.Sizing.RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["LANUMA"].RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["SCOMA-70"].RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["SCOMA-70"].ClientPageOuts))
	}
	return "Table 4: remote misses (static configs) and SCOMA-70 page-outs\n" + tb.String()
}

// FormatTable5 renders the adaptive configurations (Table 5).
func FormatTable5(runs []AppRun) string {
	tb := metrics.NewTable("app", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "PO(Util)", "PO(LRU)")
	for _, ar := range runs {
		tb.Row(ar.App,
			fmt.Sprintf("%d", ar.ByPol["Dyn-FCFS"].RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["Dyn-Util"].RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["Dyn-LRU"].RemoteMisses),
			fmt.Sprintf("%d", ar.ByPol["Dyn-Util"].ClientPageOuts),
			fmt.Sprintf("%d", ar.ByPol["Dyn-LRU"].ClientPageOuts))
	}
	return "Table 5: remote misses and page-outs (adaptive configs)\n" + tb.String()
}

// FormatTable2 renders the workload inventory (Table 2) for the paper
// and scaled sizes.
func FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: application data sets\n")
	rows := [][3]string{
		{"Barnes", "Hierarchical N-body; 8K particles, 4 iters", "2K particles, 3 iters"},
		{"FFT", "1-D six-step FFT; 64K complex doubles", "16K complex doubles"},
		{"LU", "Blocked LU; 512x512 matrix, 16x16 blocks", "256x256, 16x16 blocks"},
		{"MP3D", "Rarefied airflow; 20,000 particles, 5 iters", "5,000 particles, 4 iters"},
		{"Ocean", "Ocean currents; 258x258 grid", "130x130 grid"},
		{"Radix", "Radix sort; 1M keys, radix 1K", "256K keys, radix 256"},
		{"Water-Nsq", "O(n^2) molecular dynamics; 512 mols, 3 iters", "216 mols, 2 iters"},
		{"Water-Spa", "O(n) molecular dynamics; 512 mols, 3 iters", "216 mols, 2 iters"},
	}
	fmt.Fprintf(&b, "%-11s %-48s %s\n", "app", "paper size", "ci size")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-48s %s\n", r[0], r[1], r[2])
	}
	return b.String()
}

// RunTable1 measures and formats the latency microbenchmark.
func RunTable1() (string, error) {
	rows, err := latency.Measure(core.DefaultConfig())
	if err != nil {
		return "", err
	}
	return "Table 1: uncontended miss latencies and paging overheads (cycles)\n" + latency.Format(rows), nil
}

// PITRow is one application's result in the PIT sweep.
type PITRow struct {
	App      string
	Fast     sim.Time // PIT = 2 cycles (SRAM)
	Slow     sim.Time // PIT = 10 cycles (DRAM)
	Increase float64  // fractional slowdown
}

// RunPITSweep reproduces the end of §4.3: execution time increase when
// the PIT is DRAM (10 cycles) instead of SRAM (2 cycles). The sweep
// runs the static LANUMA configuration — the §4.3 question is exactly
// whether LA-NUMA's extra PIT translation degrades performance versus
// a true CC-NUMA frame mode that bypasses the PIT, and the static
// config isolates that overhead from adaptive-policy noise (a slower
// PIT shifts LRU victim timing under Dyn-*, which can swamp the
// translation signal at small scales).
func RunPITSweep(opts Options) ([]PITRow, error) {
	if err := opts.prepare(); err != nil {
		return nil, err
	}
	return runPITPool(&opts)
}

// FormatPITSweep renders the PIT study.
func FormatPITSweep(rows []PITRow) string {
	tb := metrics.NewTable("app", "SRAM cycles", "DRAM cycles", "increase")
	sorted := append([]PITRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].App < sorted[j].App })
	for _, r := range sorted {
		tb.Row(r.App, fmt.Sprintf("%d", r.Fast), fmt.Sprintf("%d", r.Slow),
			fmt.Sprintf("%.1f%%", r.Increase*100))
	}
	return "PIT access time study (§4.3): DRAM (10cy) vs SRAM (2cy) PIT, LANUMA\n" + tb.String()
}

// CSVHeader is the sweep dump's column row.
const CSVHeader = "app,policy,cycles,remote_misses,page_outs,real_frames,imag_frames,utilization,upgrades,writebacks,invalidations,page_faults,net_messages,net_bytes"

// FormatRow renders one app×policy cell exactly as WriteCSV does (no
// trailing newline). Testcase replay reuses it so a replayed cell can
// be diffed against results_ci.csv without format drift.
func FormatRow(app, pol string, r prism.Results) string {
	return fmt.Sprintf("%s,%s,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d",
		app, pol, r.Cycles, r.RemoteMisses, r.ClientPageOuts,
		r.RealFrames, r.ImagFrames, r.Utilization,
		r.Upgrades, r.WritebacksSent, r.InvsSent, r.PageFaults,
		r.NetMessages, r.NetBytes)
}

// WriteCSV dumps every run's raw results, one row per app×policy.
func WriteCSV(w io.Writer, runs []AppRun) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, ar := range runs {
		for _, pol := range PolicyOrder {
			r, ok := ar.ByPol[pol]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintln(w, FormatRow(ar.App, pol, r)); err != nil {
				return err
			}
		}
	}
	return nil
}
