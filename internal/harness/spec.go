package harness

import (
	"fmt"

	"prism"
	"prism/internal/fault"
	"prism/workloads"
)

// Spec is one experiment: the knobs of a policy sweep. It is the
// sweep's description everywhere — prismbench and prismsim build one
// from their flags, and prismd accepts one as its JSON job body (the
// tags are that wire format). The zero value of every field means "the
// default" and normalizes to the explicit spelling, so sparse and
// fully-spelled descriptions of the same experiment are equal after
// Normalize.
type Spec struct {
	// Size is the data-set scale: mini, ci, paper, … (default ci).
	Size string `json:"size"`
	// Apps is the application subset in sweep order (default all
	// eight SPLASH kernels). Entries are app specs — `name` or
	// `name:key=val,key=val` — and normalize to their canonical
	// spelling (workloads.App.String).
	Apps []string `json:"apps"`
	// Policies is the policy subset (default the Figure 7 six).
	Policies []string `json:"policies"`
	// CapFraction is the page-cache fraction of the SCOMA maximum used
	// by capped policies (default the paper's 0.70).
	CapFraction float64 `json:"cap_fraction"`
	// PITAccess overrides the PIT access time in cycles (0 = default).
	PITAccess uint64 `json:"pit_access,omitempty"`
	// Faults is a lossy-fabric spec in fault.ParseSpec syntax; empty
	// keeps the perfect fabric.
	Faults string `json:"faults,omitempty"`
	// Metrics asks prismd for per-cell telemetry exports with the
	// results (local tools write exports when given a MetricsDir).
	Metrics bool `json:"metrics,omitempty"`
	// SampleEvery records interval metric snapshots every N cycles in
	// the exports (implies Metrics).
	SampleEvery uint64 `json:"sample_every,omitempty"`
}

// defaultCapFraction is the paper's SCOMA-70 page-cache fraction.
const defaultCapFraction = 0.70

// Normalize canonicalizes the spec in place — defaults spelled out,
// app and policy names in their canonical spelling — and validates
// every knob. After a successful Normalize, two specs describe the
// same experiment iff they are equal, which prismd's digest relies on.
func (s *Spec) Normalize() error {
	size, err := ParseSize(s.Size)
	if err != nil {
		return err
	}
	s.Size = size.String()
	if len(s.Apps) == 0 {
		s.Apps = workloads.Names()
	}
	apps := make([]string, len(s.Apps))
	seen := map[string]bool{}
	for i, a := range s.Apps {
		app, err := workloads.ParseApp(a)
		if err != nil {
			return err
		}
		if err := app.CheckSize(size); err != nil {
			return err
		}
		canon := app.String()
		apps[i] = canon
		if seen[canon] {
			return fmt.Errorf("harness: duplicate app %q in spec", canon)
		}
		seen[canon] = true
	}
	s.Apps = apps
	if len(s.Policies) == 0 {
		s.Policies = PolicyOrder
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
			return fmt.Errorf("harness: duplicate policy %q in spec", pols[i])
		}
		seenPol[pols[i]] = true
	}
	s.Policies = pols
	if s.CapFraction == 0 {
		s.CapFraction = defaultCapFraction
	}
	if s.CapFraction < 0 || s.CapFraction > 1 {
		return fmt.Errorf("harness: cap_fraction %v out of range (0,1]", s.CapFraction)
	}
	if _, err := fault.ParseSpec(s.Faults); err != nil {
		return err
	}
	if s.SampleEvery > 0 {
		s.Metrics = true
	}
	return nil
}

// Cell is the spec's (app, policy) run. caps are the per-node
// page-cache caps the app's sizing pass derived; only capped policies
// keep them.
func (s *Spec) Cell(app, policy string, caps []int) Cell {
	c := Cell{
		App:         app,
		Policy:      policy,
		Size:        s.Size,
		PITAccess:   s.PITAccess,
		Faults:      s.Faults,
		SampleEvery: s.SampleEvery,
	}
	if Capped(policy) {
		c.Caps = caps
	}
	return c
}
