// Package testcase defines the .prismcase record/replay format: a
// self-contained description of one simulation run — the harness cell
// (app, policy, size, caps, PIT, fault spec), chaos seed and fuzz-axis
// overrides, optional embedded mid-run checkpoint — plus the expected
// results recorded when the case was created. A case replays
// bit-identically: verifying it reruns the simulation (or restores the
// embedded checkpoint and resumes, which skips the recomputation
// before the safe point) and compares results, metrics and the sweep
// CSV row against the recorded expectations by hash.
//
// Cases serialize through the snapshot envelope (versioned, hashed,
// schema-fingerprinted), so a .prismcase file written by one build
// refuses to load into a build whose state schema drifted without a
// version bump. The committed corpus under testdata/cases/ is replayed
// by `go test` and by the CI replay job via the prismcase CLI.
package testcase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"prism/internal/core"
	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/policy"
	"prism/internal/sim"
	"prism/internal/snapshot"
)

// Kind and Version identify the testcase payload in the snapshot
// envelope. Bump Version whenever Case or any embedded state struct
// changes shape; the envelope's schema fingerprint enforces this.
const (
	Kind    = "testcase"
	Version = 3
)

// ChaosName selects the protocol fuzzer workload instead of a SPLASH
// kernel.
const ChaosName = "chaos"

// SchemaFingerprint identifies the simulator's serialized-state schema:
// the testcase format version and structural fingerprint (which, via
// the embedded checkpoint, covers the full MachineSnapshot shape) plus
// the checkpoint version. Anything that invalidates recorded results —
// a model state change, a knob added to Case — changes this string, so
// it is the piece of a content-addressed result-cache key that ties
// cached outputs to the build's simulation semantics (prismd's
// look-aside cache keys on it; see internal/server).
func SchemaFingerprint() string {
	return Kind + "/v" + strconv.Itoa(Version) + "/" + snapshot.Fingerprint(&Case{}) +
		"+checkpoint/v" + strconv.Itoa(core.CheckpointVersion) + "/" + snapshot.Fingerprint(&core.MachineSnapshot{})
}

// Expect records the run outcome the case must reproduce.
type Expect struct {
	// Cycles is the parallel-phase execution time.
	Cycles int64
	// ResultsSHA256 hashes the canonical JSON of core.Results.
	ResultsSHA256 string
	// MetricsSHA256 hashes the canonical metrics export (every
	// counter, gauge and histogram, plus interval samples when
	// SampleEvery is set).
	MetricsSHA256 string
	// CSVRow is the run's sweep-CSV row (harness.FormatRow), the unit
	// the CI replay job diffs against results_ci.csv.
	CSVRow string
}

// Case is one replayable run: a harness.Cell — the run a sweep cell
// describes — plus what a sweep cell lacks: the chaos fuzzer's knobs,
// the fuzz axes' machine overrides, an embedded checkpoint and the
// recorded expectations. A case of a registered workload without
// overrides is exactly the sweep's cell, so it reproduces the sweep's
// CSV row.
type Case struct {
	Name string
	harness.Cell

	// Chaos knobs (App is ChaosName; ignored for registered workloads).
	Seed int64 `json:",omitempty"`
	Ops  int   `json:",omitempty"` // per-proc op count; 0 = chaos default

	// Machine-shape overrides; 0 keeps the workload default.
	Nodes int `json:",omitempty"`
	Procs int `json:",omitempty"`

	// Configuration knobs mirroring the fuzz axes.
	HardwareSync     bool   `json:",omitempty"`
	DynBothThreshold uint64 `json:",omitempty"`

	// CheckpointAt is the sim-time target the embedded checkpoint was
	// requested at (the capture lands on the first quiescent barrier
	// fill at or after it). Kept for provenance and re-creation.
	CheckpointAt int64                 `json:",omitempty"`
	Checkpoint   *core.MachineSnapshot `json:",omitempty"`

	Expect *Expect `json:",omitempty"`
}

// chaosDefaults mirrors the fuzz harness configuration (small caches
// for capacity pressure, four nodes, two procs each), so a fuzz
// failure converts into a case that rebuilds the identical machine.
func chaosDefaults() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Node.Procs = 2
	cfg.Kernel.RealFrames = 4096
	cfg.Node.L1.Size = 1 << 10
	cfg.Node.L2.Size = 2 << 10
	return cfg
}

// Config builds the machine configuration the case describes: the
// cell's machine (on the fuzzer's machine for chaos cases) with the
// case's overrides applied.
func (c *Case) Config() (core.Config, error) {
	var cfg core.Config
	var err error
	if c.App == ChaosName {
		cfg, err = c.Cell.ConfigOn(chaosDefaults())
	} else {
		cfg, err = c.Cell.Config()
	}
	if err != nil {
		return cfg, err
	}
	if db, ok := cfg.Policy.(policy.DynBoth); ok && c.DynBothThreshold > 0 {
		db.Threshold = c.DynBothThreshold
		cfg.Policy = db
	}
	if c.Nodes > 0 {
		cfg.Nodes = c.Nodes
	}
	if c.Procs > 0 {
		cfg.Node.Procs = c.Procs
	}
	if c.App == ChaosName && cfg.PageCacheCaps == nil && harness.Capped(cfg.Policy.Name()) {
		// The fuzz harness default: tiny caps on every node.
		caps := make([]int, cfg.Nodes)
		for i := range caps {
			caps[i] = 3
		}
		cfg.PageCacheCaps = caps
	}
	if c.HardwareSync {
		cfg.HardwareSync = true
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Workload builds a fresh workload instance (workloads carry Setup
// state, so every run needs its own): the chaos fuzzer, or the cell's
// app.
func (c *Case) Workload() (core.Workload, error) {
	if c.App == ChaosName {
		return core.ChaosWorkloadOps(c.Seed, c.Ops), nil
	}
	return c.Cell.Workload()
}

// Build assembles a fresh machine + workload pair for the case — the
// raw ingredients, for callers (the fuzz harness) that drive the run
// themselves instead of going through RunFull/RunReplay.
func Build(c *Case) (*core.Machine, core.Workload, error) { return c.build() }

// build assembles a fresh machine + workload pair, with interval
// sampling armed when the case asks for it.
func (c *Case) build() (*core.Machine, core.Workload, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, nil, err
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if c.SampleEvery > 0 {
		m.SampleMetrics(sim.Time(c.SampleEvery))
	}
	w, err := c.Workload()
	if err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// Outcome is what one execution of a case produced, in the same terms
// Expect records.
type Outcome struct {
	Results core.Results
	Export  *metrics.Export
	Expect
}

func (c *Case) outcome(m *core.Machine, res core.Results) (*Outcome, error) {
	rj, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	ex := m.ExportMetrics(c.App, res.Policy)
	var mb bytes.Buffer
	if err := ex.WriteJSON(&mb); err != nil {
		return nil, err
	}
	return &Outcome{
		Results: res,
		Export:  ex,
		Expect: Expect{
			Cycles:        int64(res.Cycles),
			ResultsSHA256: snapshot.HashBytes(rj),
			MetricsSHA256: snapshot.HashBytes(mb.Bytes()),
			CSVRow:        harness.FormatRow(c.App, res.Policy, res),
		},
	}, nil
}

// RunFull executes the case from the beginning, uninterrupted, and
// audits the global invariants.
func (c *Case) RunFull() (*Outcome, error) {
	m, w, err := c.build()
	if err != nil {
		return nil, err
	}
	res, err := m.Run(w)
	if err != nil {
		return nil, err
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, err
	}
	return c.outcome(m, res)
}

// RunReplay restores the embedded checkpoint on a fresh machine and
// resumes to completion — the zero-recomputation path before the safe
// point. The case must carry a checkpoint.
func (c *Case) RunReplay() (*Outcome, error) {
	if c.Checkpoint == nil {
		return nil, fmt.Errorf("testcase %s: no embedded checkpoint", c.Name)
	}
	m, w, err := c.build()
	if err != nil {
		return nil, err
	}
	if err := m.RestoreSnapshot(w, c.Checkpoint); err != nil {
		return nil, err
	}
	res, err := m.Resume(w)
	if err != nil {
		return nil, err
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, err
	}
	return c.outcome(m, res)
}

// Run replays the case the cheapest correct way: restore + resume when
// a checkpoint is embedded, a full run otherwise.
func (c *Case) Run() (*Outcome, error) {
	if c.Checkpoint != nil {
		return c.RunReplay()
	}
	return c.RunFull()
}

// Create executes the case, records the expected outcome, captures the
// embedded checkpoint when CheckpointAt is set, and self-checks that
// the replay path reproduces the full run before the case is handed
// out. A capped cell on a registered workload without caps is sized
// first (harness.Cell.Sized at the paper's 0.70) and records the caps,
// so the case replays the sweep's cell. A CheckpointAt that lands on
// no quiescent barrier fill surfaces as an error wrapping
// core.ErrNoQuiescentFill.
func Create(c *Case) error {
	var err error
	if c.Cell, err = c.Cell.Sized(0); err != nil {
		return fmt.Errorf("testcase %s: sizing pass: %w", c.Name, err)
	}
	m, w, err := c.build()
	if err != nil {
		return fmt.Errorf("testcase %s: %w", c.Name, err)
	}
	var res core.Results
	if c.CheckpointAt > 0 {
		snap, r, err := m.RecordCheckpoint(w, sim.Time(c.CheckpointAt))
		if err != nil {
			return fmt.Errorf("testcase %s: %w", c.Name, err)
		}
		c.Checkpoint = snap
		res = r
	} else {
		res, err = m.Run(w)
		if err != nil {
			return fmt.Errorf("testcase %s: %w", c.Name, err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("testcase %s: %w", c.Name, err)
	}
	o, err := c.outcome(m, res)
	if err != nil {
		return fmt.Errorf("testcase %s: %w", c.Name, err)
	}
	c.Expect = &o.Expect
	if c.Checkpoint != nil {
		ro, err := c.RunReplay()
		if err != nil {
			return fmt.Errorf("testcase %s: replay self-check: %w", c.Name, err)
		}
		if ro.Expect != o.Expect {
			return fmt.Errorf("testcase %s: replay self-check diverged from the full run:\n full:   %+v\n replay: %+v",
				c.Name, o.Expect, ro.Expect)
		}
	}
	return nil
}

// Verify replays the case both ways — full run, and restore + resume
// when a checkpoint is embedded — and checks every recorded
// expectation. It returns the full-run outcome and a nil error only
// when everything matches.
func (c *Case) Verify() (*Outcome, error) {
	if c.Expect == nil {
		return nil, fmt.Errorf("testcase %s: no recorded expectations (not created?)", c.Name)
	}
	var problems []string
	full, err := c.RunFull()
	if err != nil {
		return nil, fmt.Errorf("testcase %s: full run: %w", c.Name, err)
	}
	problems = append(problems, diffExpect("full run", &full.Expect, c.Expect)...)
	if c.Checkpoint != nil {
		rep, err := c.RunReplay()
		if err != nil {
			return full, fmt.Errorf("testcase %s: replay: %w", c.Name, err)
		}
		problems = append(problems, diffExpect("replay", &rep.Expect, c.Expect)...)
	}
	if len(problems) > 0 {
		return full, fmt.Errorf("testcase %s diverged:\n  %s", c.Name, strings.Join(problems, "\n  "))
	}
	return full, nil
}

func diffExpect(path string, got, want *Expect) []string {
	var out []string
	if got.Cycles != want.Cycles {
		out = append(out, fmt.Sprintf("%s: cycles %d, want %d", path, got.Cycles, want.Cycles))
	}
	if got.ResultsSHA256 != want.ResultsSHA256 {
		out = append(out, fmt.Sprintf("%s: results hash %s, want %s", path, got.ResultsSHA256, want.ResultsSHA256))
	}
	if got.MetricsSHA256 != want.MetricsSHA256 {
		out = append(out, fmt.Sprintf("%s: metrics hash %s, want %s", path, got.MetricsSHA256, want.MetricsSHA256))
	}
	if want.CSVRow != "" && got.CSVRow != want.CSVRow {
		out = append(out, fmt.Sprintf("%s: csv row\n    got  %q\n    want %q", path, got.CSVRow, want.CSVRow))
	}
	return out
}

// Write serializes the case into the snapshot envelope, gzipped — an
// embedded checkpoint runs to megabytes of JSON otherwise. Read (via
// snapshot.Decode) accepts both gzipped and plain streams.
func Write(w io.Writer, c *Case) error {
	if c.Name == "" || c.App == "" || c.Policy == "" {
		return fmt.Errorf("testcase: name, app and policy are required")
	}
	return snapshot.EncodeGzip(w, Kind, Version, c)
}

// Read deserializes a case, enforcing envelope integrity and schema.
func Read(r io.Reader) (*Case, error) {
	var c Case
	if err := snapshot.Decode(r, Kind, Version, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// Save writes the case to path.
func Save(path string, c *Case) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads the case at path.
func Load(path string) (*Case, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
