// Package server implements prismd, the long-running experiment
// gateway: an HTTP/JSON data plane that accepts experiment specs,
// queues them onto the existing harness worker pool, streams status
// and log lines back over SSE, and serves repeated submissions of an
// identical spec from a content-addressed look-aside result cache.
//
// The cache is correct by construction: every run is CI-gated
// byte-deterministic (results_ci.csv, metrics_ci.json), so two jobs
// whose canonicalized specs and simulator schema fingerprints agree
// must produce byte-identical CSV and metrics exports. The cache key
// therefore hashes the normalized spec together with
// testcase.SchemaFingerprint() — a model-state or knob-schema change
// invalidates every cached result automatically.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"prism"
	"prism/internal/fault"
	"prism/internal/harness"
	"prism/internal/metrics"
	"prism/internal/sim"
	"prism/internal/testcase"
	"prism/workloads"
)

// Spec is one experiment request: the knobs of a policy sweep as
// harness.Run understands them. The zero value of every field means
// "the default" and normalizes to the explicit spelling, so sparse and
// fully-spelled submissions of the same experiment share a digest.
type Spec struct {
	// Size is the data-set scale: mini, ci or paper (default ci).
	Size string `json:"size"`
	// Apps is the application subset in sweep order (default all
	// eight SPLASH kernels). Entries are app specs in the harness
	// grammar — `name` or `name:key=val,key=val` — and normalize to
	// their canonical spelling (registered name, sorted non-default
	// parameters), so every spelling of a cell shares a digest.
	Apps []string `json:"apps"`
	// Policies is the policy subset (default the Figure 7 six).
	Policies []string `json:"policies"`
	// CapFraction is the page-cache fraction of the SCOMA maximum used
	// by capped policies (default the paper's 0.70).
	CapFraction float64 `json:"cap_fraction"`
	// PITAccess overrides the PIT access time in cycles (0 = default).
	PITAccess uint64 `json:"pit_access,omitempty"`
	// Faults is a lossy-fabric spec in fault.ParseSpec syntax.
	Faults string `json:"faults,omitempty"`
	// Metrics requests per-cell telemetry exports with the results.
	Metrics bool `json:"metrics,omitempty"`
	// SampleEvery records interval metric snapshots every N cycles in
	// the exports (implies Metrics).
	SampleEvery uint64 `json:"sample_every,omitempty"`
}

// Normalize canonicalizes the spec in place — defaults spelled out,
// app/policy names in their canonical spelling — and validates every
// knob. After a successful Normalize, two specs describe the same
// experiment iff they are equal, which is what Digest relies on.
func (s *Spec) Normalize() error {
	if s.Size == "" {
		s.Size = workloads.CISize.String()
	}
	size, err := harness.ParseSize(s.Size)
	if err != nil {
		return err
	}
	if len(s.Apps) == 0 {
		s.Apps = workloads.Names()
	}
	apps := make([]string, len(s.Apps))
	seen := map[string]bool{}
	for i, a := range s.Apps {
		canon, err := harness.CanonicalAppSpec(a)
		if err != nil {
			return err
		}
		// Canonicalization resolves the name and parameter keys; a
		// throwaway build validates parameter values and size support.
		if _, err := harness.NewWorkloadSpec(canon, size); err != nil {
			return err
		}
		apps[i] = canon
		if seen[canon] {
			return fmt.Errorf("server: duplicate app %q in spec", canon)
		}
		seen[canon] = true
	}
	s.Apps = apps
	if len(s.Policies) == 0 {
		s.Policies = append([]string(nil), harness.PolicyOrder...)
	}
	pols := make([]string, len(s.Policies))
	seenPol := map[string]bool{}
	for i, p := range s.Policies {
		pol, err := prism.PolicyByName(p)
		if err != nil {
			return err
		}
		pols[i] = pol.Name()
		if seenPol[pols[i]] {
			return fmt.Errorf("server: duplicate policy %q in spec", pols[i])
		}
		seenPol[pols[i]] = true
	}
	s.Policies = pols
	if s.CapFraction == 0 {
		s.CapFraction = 0.70
	}
	if s.CapFraction < 0 || s.CapFraction > 1 {
		return fmt.Errorf("server: cap_fraction %v out of range (0,1]", s.CapFraction)
	}
	if _, err := fault.ParseSpec(s.Faults); err != nil {
		return err
	}
	if s.SampleEvery > 0 {
		s.Metrics = true
	}
	return nil
}

// schemaMaterial is everything besides the spec that decides whether a
// cached result is still valid: the simulator's serialized-state
// fingerprint, the CSV row format, and the metrics export schema.
func schemaMaterial() string {
	return testcase.SchemaFingerprint() + "+csv/" + harness.CSVHeader + "+metrics/v" + strconv.Itoa(metrics.Schema)
}

// Digest returns the spec's content address: SHA-256 over the
// canonical JSON of the normalized spec plus the schema material. Call
// only after Normalize.
func (s *Spec) Digest() string { return s.digestWith(schemaMaterial()) }

// digestWith computes the digest against an explicit schema string —
// split out so tests can prove a schema bump changes the key.
func (s *Spec) digestWith(schema string) string {
	canonical, err := json.Marshal(s)
	if err != nil {
		// Spec has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	sum := sha256.Sum256(append(append(canonical, 0), schema...))
	return hex.EncodeToString(sum[:])
}

// Options builds the harness options that execute the spec. The
// context, worker count, log sink and metrics directory are the
// server's per-job runtime choices and deliberately not part of the
// spec (none of them can change a result).
func (s *Spec) Options(opts harness.Options) (harness.Options, error) {
	size, err := harness.ParseSize(s.Size)
	if err != nil {
		return opts, err
	}
	plan, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return opts, err
	}
	opts.Size = size
	opts.Apps = append([]string(nil), s.Apps...)
	opts.Policies = append([]string(nil), s.Policies...)
	opts.CapFraction = s.CapFraction
	opts.PITAccess = sim.Time(s.PITAccess)
	opts.Faults = plan
	opts.SampleEvery = sim.Time(s.SampleEvery)
	return opts, nil
}

// ---------------------------------------------------------------------------
// .prismcase interchange
// ---------------------------------------------------------------------------

// SpecFromCase converts a single-run .prismcase into the job spec that
// reproduces its cell through the sweep harness. Cases that describe
// machines the sweep cannot build — the chaos fuzzer, machine-shape or
// threshold overrides, hardware sync, explicit page-cache caps (the
// sweep derives caps from its own SCOMA sizing pass), or an embedded
// checkpoint — are rejected.
func SpecFromCase(c *testcase.Case) (*Spec, error) {
	switch {
	case c.Workload == testcase.ChaosName:
		return nil, fmt.Errorf("server: case %s: chaos cases are not sweep cells", c.Name)
	case c.Checkpoint != nil || c.CheckpointAt != 0:
		return nil, fmt.Errorf("server: case %s: embedded checkpoints are not submittable", c.Name)
	case c.Nodes != 0 || c.Procs != 0:
		return nil, fmt.Errorf("server: case %s: machine-shape overrides are not sweep knobs", c.Name)
	case c.HardwareSync || c.DynBothThreshold != 0:
		return nil, fmt.Errorf("server: case %s: hardware-sync/threshold overrides are not sweep knobs", c.Name)
	case c.PageCacheCaps != nil:
		return nil, fmt.Errorf("server: case %s: explicit page-cache caps are not sweep knobs (the sweep sizes its own)", c.Name)
	}
	app, err := harness.AppLabel(c.Workload, workloads.Params(c.Params))
	if err != nil {
		return nil, fmt.Errorf("server: case %s: %w", c.Name, err)
	}
	s := &Spec{
		Size:        c.Size,
		Apps:        []string{app},
		Policies:    []string{c.Policy},
		Faults:      c.FaultSpec,
		SampleEvery: uint64(c.SampleEvery),
	}
	if s.Size == "" {
		s.Size = workloads.MiniSize.String() // the testcase default
	}
	if c.DRAMPIT {
		s.PITAccess = 10
	}
	if err := s.Normalize(); err != nil {
		return nil, fmt.Errorf("server: case %s: %w", c.Name, err)
	}
	return s, nil
}

// CaseFor converts one (app, policy) cell of a normalized spec into a
// .prismcase skeleton (no recorded expectations — testcase.Create
// records those by running it). app is the cell's canonical app spec
// as Normalize spelled it; caps are the per-node page-cache caps the
// sweep derived for the app's capped policies; pass nil for uncapped
// cells.
func (s *Spec) CaseFor(app, policy string, caps []int) (*testcase.Case, error) {
	if !contains(s.Apps, app) || !contains(s.Policies, policy) {
		return nil, fmt.Errorf("server: cell %s/%s not in spec", app, policy)
	}
	name, params, err := harness.ParseAppSpec(app)
	if err != nil {
		return nil, fmt.Errorf("server: cell %s/%s: %w", app, policy, err)
	}
	c := &testcase.Case{
		Name:          fmt.Sprintf("%s-%s-%s", caseLabel(app), policy, s.Size),
		Workload:      name,
		Params:        params,
		Size:          s.Size,
		Policy:        policy,
		PageCacheCaps: append([]int(nil), caps...),
		FaultSpec:     s.Faults,
		SampleEvery:   int64(s.SampleEvery),
	}
	switch s.PITAccess {
	case 0:
	case 10:
		c.DRAMPIT = true
	default:
		return nil, fmt.Errorf("server: PIT access %d has no .prismcase spelling (only 0 or 10)", s.PITAccess)
	}
	return c, nil
}

// caseLabel flattens an app spec into a filename-safe case-name
// component (`:`/`=` → `-`, `;` → `+`).
func caseLabel(app string) string {
	return strings.NewReplacer(":", "-", "=", "-", ";", "+").Replace(app)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
