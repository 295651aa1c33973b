package server

import (
	"strings"
	"testing"

	"prism/internal/harness"
)

func normalized(t *testing.T, s harness.Spec) *harness.Spec {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatalf("Normalize(%+v): %v", s, err)
	}
	return &s
}

// Sparse and fully-spelled submissions of the same experiment must
// share a cache key.
func TestDigestCanonicalization(t *testing.T) {
	sparse := normalized(t, harness.Spec{})
	spelled := normalized(t, harness.Spec{
		Size:        "ci",
		Apps:        sparse.Apps,
		Policies:    sparse.Policies,
		CapFraction: 0.70,
	})
	if Digest(sparse) != Digest(spelled) {
		t.Errorf("sparse %q != spelled-out %q", Digest(sparse), Digest(spelled))
	}

	lower := normalized(t, harness.Spec{Apps: []string{"fft"}, Policies: []string{"scoma"}})
	upper := normalized(t, harness.Spec{Apps: []string{"fft"}, Policies: []string{"SCOMA"}})
	if Digest(lower) != Digest(upper) {
		t.Errorf("policy-name case changed digest: %q != %q", Digest(lower), Digest(upper))
	}

	// App-spec parameters canonicalize into the digest too: reordered
	// parameters, alias names and default-valued overrides all spell
	// the same cell.
	a := normalized(t, harness.Spec{Size: "mini", Apps: []string{"kv:ops=64,keys=4096"}, Policies: []string{"SCOMA"}})
	b := normalized(t, harness.Spec{Size: "mini", Apps: []string{"KV:keys=4096;ops=64,rounds=2"}, Policies: []string{"scoma"}})
	if Digest(a) != Digest(b) {
		t.Errorf("param spelling changed digest: %q != %q", Digest(a), Digest(b))
	}
	if a.Apps[0] != "kv:keys=4096;ops=64" {
		t.Errorf("normalized app spec = %q", a.Apps[0])
	}

	// Values have one spelling: a value written another way shares
	// the digest of its canonical form.
	for spelled, canon := range map[string]string{
		"kv:shards=064":        "kv",
		"kv:shards=+64":        "kv",
		"kv:keys=0100;ops=+64": "kv:keys=100;ops=64",
		"zipf:zipf=0.90":       "zipf",
		"zipf:zipf=.9":         "zipf",
		"zipf:zipf=11e-1":      "zipf:zipf=1.1",
	} {
		a := normalized(t, harness.Spec{Size: "dc64", Apps: []string{spelled}, Policies: []string{"SCOMA"}})
		b := normalized(t, harness.Spec{Size: "dc64", Apps: []string{canon}, Policies: []string{"SCOMA"}})
		if a.Apps[0] != canon || Digest(a) != Digest(b) {
			t.Errorf("%q normalizes to %q, digest %.12s; %q digests to %.12s", spelled, a.Apps[0], Digest(a), canon, Digest(b))
		}
	}
}

// Every knob must feed the digest: flipping any single one produces a
// distinct key.
func TestDigestDistinctPerKnob(t *testing.T) {
	base := harness.Spec{Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}}
	variants := map[string]harness.Spec{
		"size":         {Size: "ci", Apps: []string{"fft"}, Policies: []string{"SCOMA"}},
		"app":          {Size: "mini", Apps: []string{"lu"}, Policies: []string{"SCOMA"}},
		"extra app":    {Size: "mini", Apps: []string{"fft", "lu"}, Policies: []string{"SCOMA"}},
		"policy":       {Size: "mini", Apps: []string{"fft"}, Policies: []string{"LANUMA"}},
		"app params":   {Size: "mini", Apps: []string{"kv:ops=64"}, Policies: []string{"SCOMA"}},
		"app params 2": {Size: "mini", Apps: []string{"kv:ops=128"}, Policies: []string{"SCOMA"}},
		"cap fraction": {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, CapFraction: 0.5},
		"pit access":   {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, PITAccess: 10},
		"fault spec":   {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, Faults: "drop=0.01"},
		"fault seed":   {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, Faults: "drop=0.01,seed=7"},
		"sample every": {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, SampleEvery: 1000},
		// Metrics selects which artifacts the cached result carries
		// (per-cell exports or not), so it splits the key too.
		"metrics": {Size: "mini", Apps: []string{"fft"}, Policies: []string{"SCOMA"}, Metrics: true},
	}
	seen := map[string]string{Digest(normalized(t, base)): "base"}
	for name, v := range variants {
		d := Digest(normalized(t, v))
		if prev, dup := seen[d]; dup {
			t.Errorf("variant %q collides with %q (digest %s)", name, prev, d)
		}
		seen[d] = name
	}
}

// A simulator schema change (serialized machine state, CSV row format
// or metrics export version) must invalidate every cached digest.
func TestDigestSchemaBump(t *testing.T) {
	s := normalized(t, harness.Spec{Apps: []string{"fft"}, Policies: []string{"SCOMA"}})
	now := Digest(s)
	if bumped := digestWith(s, schemaMaterial()+"+v-next"); bumped == now {
		t.Errorf("schema bump did not change the digest")
	}
	if digestWith(s, schemaMaterial()) != now {
		t.Errorf("digestWith(schemaMaterial()) disagrees with Digest()")
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := map[string]harness.Spec{
		"size":             {Size: "huge"},
		"app":              {Apps: []string{"nosuch"}},
		"duplicate app":    {Apps: []string{"fft", "fft"}},
		"app param":        {Apps: []string{"kv:bogus=1"}},
		"app param value":  {Apps: []string{"kv:ops=zero"}},
		"dup app by canon": {Apps: []string{"kv", "kv:rounds=2"}},
		"policy":           {Policies: []string{"nosuch"}},
		"duplicate policy": {Policies: []string{"SCOMA", "scoma"}},
		"cap fraction":     {CapFraction: 1.5},
		"fault spec":       {Faults: "drop=yes"},
	}
	for name, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("Normalize accepted bad %s: %+v", name, s)
		}
	}
	// ParseSize errors must name the valid sizes (the CLI satellite).
	s := harness.Spec{Size: "huge"}
	err := s.Normalize()
	for _, want := range []string{"mini", "ci", "paper"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("size error %q does not name %q", err, want)
		}
	}
}
