// Package harness drives the paper's experiments end to end: the
// two-pass SCOMA→SCOMA-70 page-cache sizing, the six-policy runs
// behind Figure 7 and Tables 3–5, the Table 1 microbenchmark, the §4.3
// PIT-access-time study, and the design-choice ablations.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"prism"
	"prism/internal/core"
	"prism/internal/fault"
	"prism/internal/latency"
	"prism/internal/metrics"
	"prism/internal/sim"
	"prism/workloads"
)

// PolicyOrder is the paper's Figure 7 legend order.
var PolicyOrder = []string{"SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU"}

// Options configures an experiment sweep.
type Options struct {
	Size     workloads.Size
	Apps     []string // nil = all eight
	Policies []string // nil = all six
	// PITAccess overrides the PIT access time (the §4.3 study); 0
	// keeps the default (2 cycles, SRAM).
	PITAccess sim.Time
	// CapFraction is the page-cache fraction of the SCOMA maximum
	// used by capped policies (the paper's 0.70).
	CapFraction float64
	// Log, when non-nil, receives progress lines. Writes are
	// serialized by an internal mutex, so lines stay atomic even
	// when runs execute concurrently.
	Log io.Writer
	// Workers bounds how many runs execute concurrently: 0 means
	// GOMAXPROCS, 1 forces the sequential path. Every run owns a
	// private Machine, so results are bit-identical at any width.
	Workers int
	// MetricsDir, when non-empty, makes every sweep cell write its
	// full telemetry export to <MetricsDir>/<app>_<policy>.json
	// (metrics.Export, analyzed with prismstat). Export is pure
	// observation: the sweep's results and CSV are byte-identical
	// with or without it. The PIT sweep ignores MetricsDir (it runs
	// the same app × policy cell twice, which would collide).
	MetricsDir string
	// SampleEvery, when nonzero (and MetricsDir is set), records
	// interval metric snapshots every N cycles in each cell's export.
	SampleEvery sim.Time
	// Faults, when non-nil and active, makes every run's interconnect
	// lossy under the plan's seeded deterministic schedule; the
	// machine's recovery transport repairs the damage, so sweeps still
	// converge to the same workload results. nil — or a plan with all
	// rates zero and nothing scripted — keeps the perfect fabric and
	// byte-identical output.
	Faults *fault.Plan
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

func (o *Options) defaults() {
	if o.Apps == nil {
		o.Apps = workloads.Names()
	}
	// Canonicalize app specs up front so CSV rows, log lines and cell
	// labels use one spelling regardless of how the caller wrote the
	// spec. Specs that fail to parse are kept verbatim: runOne builds
	// the workload from the same spec and surfaces the real error.
	o.Apps = append([]string(nil), o.Apps...)
	for i, app := range o.Apps {
		if canon, err := CanonicalAppSpec(app); err == nil {
			o.Apps[i] = canon
		}
	}
	if o.Policies == nil {
		o.Policies = append([]string(nil), PolicyOrder...)
	}
	if o.CapFraction == 0 {
		o.CapFraction = 0.70
	}
	if o.logMu == nil {
		o.logMu = &sync.Mutex{}
	}
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
	App   string
	ByPol map[string]prism.Results
	Caps  []int // per-node page-cache caps used by capped policies
}

// config builds the machine configuration for one run.
func (o *Options) config(polName string, caps []int) (prism.Config, error) {
	cfg := workloads.ConfigForSize(o.Size)
	pol, err := prism.PolicyByName(polName)
	if err != nil {
		return cfg, err
	}
	cfg.Policy = pol
	if polName != "SCOMA" && polName != "LANUMA" {
		cfg.PageCacheCaps = caps
	}
	if o.PITAccess != 0 {
		cfg.Node.PITConfig.AccessTime = o.PITAccess
	}
	cfg.Faults = o.Faults
	return cfg, nil
}

// runOne executes one app × policy.
func (o *Options) runOne(app, polName string, caps []int) (prism.Results, error) {
	cfg, err := o.config(polName, caps)
	if err != nil {
		return prism.Results{}, err
	}
	m, err := prism.New(cfg)
	if err != nil {
		return prism.Results{}, err
	}
	if o.MetricsDir != "" && o.SampleEvery != 0 {
		m.SampleMetrics(o.SampleEvery)
	}
	w, err := NewWorkloadSpec(app, o.Size)
	if err != nil {
		return prism.Results{}, err
	}
	res, err := m.Run(w)
	if err != nil {
		return prism.Results{}, fmt.Errorf("%s/%s: %w", app, polName, err)
	}
	if o.MetricsDir != "" {
		path := filepath.Join(o.MetricsDir, fmt.Sprintf("%s_%s.json", SpecFileName(app), polName))
		if err := m.ExportMetrics(app, polName).WriteJSONFile(path); err != nil {
			return prism.Results{}, fmt.Errorf("%s/%s: metrics export: %w", app, polName, err)
		}
	}
	o.logf("  %-10s %-9s cycles=%-12d remote=%-9d pageouts=%-6d frames=%d+%d",
		app, polName, res.Cycles, res.RemoteMisses, res.ClientPageOuts, res.RealFrames, res.ImagFrames)
	return res, nil
}

// capsFor derives the per-node page-cache caps for the capped policies
// from a SCOMA sizing run: CapFraction × per-node max client frames,
// floored at one frame. Both the sequential and parallel paths use it,
// so the two-pass methodology is identical in either mode.
func capsFor(scoma prism.Results, frac float64) []int {
	caps := make([]int, len(scoma.MaxClientFrames))
	for i, c := range scoma.MaxClientFrames {
		cap := int(float64(c) * frac)
		if cap < 1 {
			cap = 1
		}
		caps[i] = cap
	}
	return caps
}

// Run executes the full sweep: for each app, a SCOMA pass sizes the
// page cache (CapFraction × per-node max client frames), then every
// requested policy runs. The SCOMA pass is reused as the SCOMA result
// when requested.
//
// With Workers != 1 the sweep runs on a worker pool (see parallel.go):
// pass 1 executes every app's SCOMA sizing run as one wave, pass 2
// executes the remaining app × policy cells. Each cell builds a
// private Machine, so the aggregation — and the resulting CSV — is
// byte-identical to the sequential path's.
//
// When Options.Context is canceled mid-sweep, Run stops at the next
// cell boundary and returns the cells completed so far (apps whose
// ByPol map may cover only a subset of the requested policies)
// alongside the context's error, so callers can report partial
// progress instead of losing the whole sweep.
func Run(opts Options) ([]AppRun, error) {
	opts.defaults()
	if opts.MetricsDir != "" {
		if err := os.MkdirAll(opts.MetricsDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: metrics dir: %w", err)
		}
	}
	if opts.workers() > 1 {
		return runParallel(&opts)
	}
	return runSequential(&opts)
}

// runSequential is the original single-goroutine sweep loop.
func runSequential(opts *Options) ([]AppRun, error) {
	ctx := opts.ctx()
	var out []AppRun
	for _, app := range opts.Apps {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("harness: sweep aborted: %w", err)
		}
		opts.logf("%s:", app)
		ar := AppRun{App: app, ByPol: make(map[string]prism.Results)}

		scoma, err := opts.runOne(app, "SCOMA", nil)
		if err != nil {
			return out, err
		}
		ar.ByPol["SCOMA"] = scoma
		ar.Caps = capsFor(scoma, opts.CapFraction)

		for _, pol := range opts.Policies {
			if pol == "SCOMA" {
				continue
			}
			if err := ctx.Err(); err != nil {
				out = append(out, ar)
				return out, fmt.Errorf("harness: sweep aborted: %w", err)
			}
			res, err := opts.runOne(app, pol, ar.Caps)
			if err != nil {
				out = append(out, ar)
				return out, err
			}
			ar.ByPol[pol] = res
		}
		out = append(out, ar)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Formatting: the paper's figures and tables
// ---------------------------------------------------------------------------

// FormatFig7 renders execution time normalized to SCOMA (Figure 7).
func FormatFig7(runs []AppRun) string {
	tb := metrics.NewTable(append([]string{"app"}, PolicyOrder...)...)
	for _, ar := range runs {
		base := ar.ByPol["SCOMA"].Cycles
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
		s, l := ar.ByPol["SCOMA"], ar.ByPol["LANUMA"]
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
			fmt.Sprintf("%d", ar.ByPol["SCOMA"].RemoteMisses),
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
	opts.defaults()
	// Both PIT cells are the same app × policy, so per-cell export
	// files would collide; the PIT study never uses the exports.
	opts.MetricsDir = ""
	if opts.workers() > 1 {
		return runPITParallel(&opts)
	}
	ctx := opts.ctx()
	var out []PITRow
	for _, app := range opts.Apps {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("harness: sweep aborted: %w", err)
		}
		opts.logf("%s (PIT sweep):", app)
		fastOpts := opts
		fastOpts.PITAccess = 2
		fast, err := fastOpts.runOne(app, "LANUMA", nil)
		if err != nil {
			return nil, err
		}
		slowOpts := opts
		slowOpts.PITAccess = 10
		slow, err := slowOpts.runOne(app, "LANUMA", nil)
		if err != nil {
			return nil, err
		}
		out = append(out, PITRow{
			App:      app,
			Fast:     fast.Cycles,
			Slow:     slow.Cycles,
			Increase: float64(slow.Cycles)/float64(fast.Cycles) - 1,
		})
	}
	return out, nil
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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
