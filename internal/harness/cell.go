package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"prism"
	"prism/internal/core"
	"prism/internal/fault"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/workloads"
)

// Cell is one run: an app under one policy at one size, with the knobs
// a sweep hands each of its cells. Every machine the tools build for a
// run goes through Cell.Config — the sweep's cells (prismsim's too),
// prismtrace and .prismcase testcases (which embed a Cell) — so
// a cell means the same machine everywhere. Field types follow Spec.
type Cell struct {
	// App is the canonical app spec (workloads.App.String), or the
	// name of a workload the caller builds itself (the chaos fuzzer).
	App    string
	Policy string
	// Size is the data-set scale (ParseSize spelling; empty means ci).
	Size string `json:",omitempty"`
	// Caps are the per-node page-cache caps of a capped policy.
	Caps        []int  `json:",omitempty"`
	PITAccess   uint64 `json:",omitempty"`
	Faults      string `json:",omitempty"`
	SampleEvery uint64 `json:",omitempty"`
}

// Capped reports whether the named policy runs with page-cache caps
// (SCOMA-70 and the Dyn-* policies; SCOMA and LANUMA never fill a
// bounded page cache).
func Capped(policy string) bool { return policy != "SCOMA" && policy != "LANUMA" }

// Name is the cell's filename-safe label, `<SpecFileName(app)>_<policy>`:
// the metrics export file, prismd's /metrics/{cell} and /case/{cell}
// routes, and the case prismd exports are all named by it.
func (c Cell) Name() string { return SpecFileName(c.App) + "_" + c.Policy }

// Config builds the cell's machine on its size's base configuration.
func (c Cell) Config() (core.Config, error) {
	size, err := ParseSize(c.Size)
	if err != nil {
		return core.Config{}, err
	}
	return c.ConfigOn(workloads.ConfigForSize(size))
}

// ConfigOn applies the cell's policy, caps, PIT access time and fault
// plan to a base configuration (testcases start chaos cells from the
// fuzzer's machine). A capped cell on a registered workload must carry
// caps: running it uncapped would silently measure SCOMA.
func (c Cell) ConfigOn(cfg core.Config) (core.Config, error) {
	pol, err := policy.ByName(c.Policy)
	if err != nil {
		return cfg, err
	}
	cfg.Policy = pol
	if Capped(pol.Name()) {
		if c.Caps == nil && c.registered() {
			return cfg, fmt.Errorf("harness: %s/%s: capped policy without page-cache caps (size them with a SCOMA pass)", c.App, pol.Name())
		}
		cfg.PageCacheCaps = c.Caps
	}
	if c.PITAccess != 0 {
		cfg.Node.PITConfig.AccessTime = sim.Time(c.PITAccess)
	}
	if cfg.Faults, err = fault.ParseSpec(c.Faults); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// registered reports whether the cell's app is a registered workload's
// spec (and so can be sized by a SCOMA pass of itself).
func (c Cell) registered() bool {
	_, err := workloads.ParseApp(c.App)
	return err == nil
}

// Workload builds a fresh instance of the cell's app (workloads carry
// Setup state, so every run needs its own).
func (c Cell) Workload() (prism.Workload, error) {
	size, err := ParseSize(c.Size)
	if err != nil {
		return nil, err
	}
	app, err := workloads.ParseApp(c.App)
	if err != nil {
		return nil, err
	}
	return app.New(size)
}

// Sized returns the cell with the page-cache caps it runs with. A
// capped cell on a registered workload that has no caps gets them the
// way the sweep's sizing wave derives them: a SCOMA pass of the same
// app, size, PIT and fault plan, then capsFor at capFraction (0 means
// the paper's 0.70). The sizing pass writes no metrics export. Any
// other cell comes back unchanged.
func (c Cell) Sized(capFraction float64) (Cell, error) {
	pol, err := policy.ByName(c.Policy)
	if err != nil {
		return c, err
	}
	if !Capped(pol.Name()) || c.Caps != nil || !c.registered() {
		return c, nil
	}
	if capFraction == 0 {
		capFraction = defaultCapFraction
	}
	scoma := c
	scoma.Policy, scoma.SampleEvery = "SCOMA", 0
	res, err := RunCell(scoma, "")
	if err != nil {
		return c, err
	}
	c.Caps = capsFor(res, capFraction)
	return c, nil
}

// capsFor derives the per-node page-cache caps for the capped policies
// from a SCOMA sizing run: frac × per-node max client frames, floored
// at one frame. The sweep's sizing wave and Cell.Sized both use it, so
// the two-pass methodology is the same for a sweep and a single cell.
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

// RunCell runs one cell on a fresh machine. With metricsDir set it
// arms interval sampling (when the cell asks for it) and writes the
// cell's telemetry export to <metricsDir>/<Name>.json; exports are
// pure observation and never change the results. A panic anywhere in
// the cell — in engine context, or on a processor coroutine, whose
// panic Step re-raises in the engine's goroutine — becomes the cell's
// error, so one failing cell cannot crash a sweep's worker or a server.
func RunCell(c Cell, metricsDir string) (res prism.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = prism.Results{}, fmt.Errorf("%s/%s: %v", c.App, c.Policy, r)
		}
	}()
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return prism.Results{}, fmt.Errorf("harness: metrics dir: %w", err)
		}
	}
	cfg, err := c.Config()
	if err != nil {
		return prism.Results{}, err
	}
	m, err := prism.New(cfg)
	if err != nil {
		return prism.Results{}, err
	}
	if metricsDir != "" && c.SampleEvery != 0 {
		m.SampleMetrics(sim.Time(c.SampleEvery))
	}
	w, err := c.Workload()
	if err != nil {
		return prism.Results{}, err
	}
	res, err = m.Run(w)
	if err != nil {
		return prism.Results{}, fmt.Errorf("%s/%s: %w", c.App, c.Policy, err)
	}
	if metricsDir != "" {
		path := filepath.Join(metricsDir, c.Name()+".json")
		if err := m.ExportMetrics(c.App, c.Policy).WriteJSONFile(path); err != nil {
			return prism.Results{}, fmt.Errorf("%s/%s: metrics export: %w", c.App, c.Policy, err)
		}
	}
	return res, nil
}
