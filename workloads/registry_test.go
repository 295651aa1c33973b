package workloads

import (
	"errors"
	"strings"
	"testing"

	"prism"
)

func TestRegistryWrapperEquivalence(t *testing.T) {
	// The thin wrappers must reproduce the old hand-maintained
	// switches: Table 2 names in paper order and the historical case
	// variants.
	wantNames := []string{"barnes", "fft", "lu", "mp3d", "ocean", "radix", "water-nsq", "water-spa"}
	got := Names()
	if len(got) != len(wantNames) {
		t.Fatalf("Names() = %v, want %v", got, wantNames)
	}
	for i := range got {
		if got[i] != wantNames[i] {
			t.Fatalf("Names() = %v, want %v", got, wantNames)
		}
	}
	for _, spelling := range []string{"barnes", "Barnes", "FFT", "Water-Nsq", "waternsq", "waterspa", "LU"} {
		w, err := NewWorkload(spelling, MiniSize, nil)
		if err != nil {
			t.Errorf("NewWorkload(%q): %v", spelling, err)
		} else if w == nil {
			t.Errorf("NewWorkload(%q): nil workload", spelling)
		}
	}
}

func TestRegistryUnknownWorkload(t *testing.T) {
	_, err := NewWorkload("no-such-workload", MiniSize, nil)
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("got %v, want ErrUnknownWorkload", err)
	}
}

func TestRegistryAliasCollision(t *testing.T) {
	stub := func(Size, App) prism.Workload { return nil }
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Descriptor{Name: "collision-test", Aliases: []string{"FFT"}, New: stub})
}

func TestRegistryUnknownParam(t *testing.T) {
	// SPLASH kernels take no parameters: any override is unknown.
	_, err := NewWorkload("fft", MiniSize, Params{"shards": "4"})
	if !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("got %v, want ErrUnknownParam", err)
	}
}

func TestRegistryUnsupportedSize(t *testing.T) {
	_, err := NewWorkload("fft", DC64Size, nil)
	if !errors.Is(err, ErrUnsupportedSize) {
		t.Fatalf("got %v, want ErrUnsupportedSize", err)
	}
	if !strings.Contains(err.Error(), "mini") {
		t.Errorf("error should name the supported sizes: %v", err)
	}
}

// TestParseAppGrammar: the spec grammar's accepted and refused
// shapes (names trimmed and case-folded, `,` or `;` between
// parameters, keys case-insensitive and trimmed).
func TestParseAppGrammar(t *testing.T) {
	good := map[string]string{
		"kv":                     "kv",
		" FFT ":                  "fft",
		"kv:keys=100":            "kv:keys=100",
		"kv:keys=100,ops=5":      "kv:keys=100;ops=5",
		"kv:keys=100;ops=5":      "kv:keys=100;ops=5",
		"kv: KEYS = 100 , ops=5": "kv:keys=100;ops=5",
	}
	for spec, want := range good {
		if a, err := ParseApp(spec); err != nil || a.String() != want {
			t.Errorf("ParseApp(%q) = %v, %v; want %q", spec, a, err, want)
		}
	}
	bad := []string{"", "  ", ":keys=1", "kv:", "kv:keys", "kv:=1", "kv:keys=", "kv:keys=1,keys=2"}
	for _, spec := range bad {
		if _, err := ParseApp(spec); err == nil {
			t.Errorf("ParseApp(%q) accepted", spec)
		}
	}
}

// TestParseAppCanonical: every spelling of a cell — alias, reordered
// keys, explicit defaults, re-spelled values — renders one label.
func TestParseAppCanonical(t *testing.T) {
	good := map[string]string{
		"fft":                      "fft",
		"FFT":                      "fft",
		"Water-Nsq":                "water-nsq",
		"waternsq":                 "water-nsq",
		"kv":                       "kv",
		"kv:shards=64":             "kv", // default-valued override drops out
		"kv:ops=64,keys=100":       "kv:keys=100;ops=64",
		"kv:keys=100;ops=64":       "kv:keys=100;ops=64",
		"ZIPFFE:rounds=2,zipf=1.1": "zipf:zipf=1.1",
		// One spelling per value.
		"kv:shards=064":         "kv",
		"kv:shards=+64":         "kv",
		"kv:keys=0100;ops=+64":  "kv:keys=100;ops=64",
		"zipf:zipf=0.90":        "zipf",
		"zipf:zipf=.9":          "zipf",
		"zipf:zipf=11e-1":       "zipf:zipf=1.1",
		"synth:writes=0":        "synth:writes=0",
		"synth:random=25;ops=7": "synth:ops=7",
	}
	for spec, want := range good {
		a, err := ParseApp(spec)
		if err != nil {
			t.Errorf("ParseApp(%q): %v", spec, err)
			continue
		}
		if a.String() != want {
			t.Errorf("ParseApp(%q) = %q, want %q", spec, a, want)
		}
		if b, err := ParseApp(a.String()); err != nil || b.String() != want {
			t.Errorf("label %q does not parse back to itself: %v, %v", want, b, err)
		}
	}
}

// TestParseAppErrors: each failure is one line wrapping its named
// error, and several bad keys report the first in key order.
func TestParseAppErrors(t *testing.T) {
	for spec, want := range map[string]error{
		"nosuch:x=1":         ErrUnknownWorkload,
		"kv:bogus=1":         ErrUnknownParam,
		"fft:shards=4":       ErrUnknownParam,
		"zipf:zipf=NaN":      ErrBadParam,
		"zipf:zipf=Inf":      ErrBadParam,
		"zipf:zipf=0":        ErrBadParam,
		"kv:writepct=0":      ErrBadParam,
		"kv:writepct=101":    ErrBadParam,
		"kv:ops=zero":        ErrBadParam,
		"kv:keys=8;shards=9": ErrBadParam,
		"pubsub:payload=100": ErrBadParam,
		"synth:writes=101":   ErrBadParam,
		"synth:random=-1":    ErrBadParam,
	} {
		_, err := ParseApp(spec)
		if !errors.Is(err, want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("ParseApp(%q): %v, want one line wrapping %v", spec, err, want)
		}
	}
	for spec, key := range map[string]string{
		"kv:zeta=1;beta=2;alpha=3": `"alpha"`,
		"kv:zipf=0;ops=0;keys=0":   "keys=",
	} {
		if _, err := ParseApp(spec); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseApp(%q): %v, want it to name %s", spec, err, key)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, s := range Sizes() {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSize(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSize("huge"); !errors.Is(err, ErrUnknownSize) {
		t.Fatalf("ParseSize(huge): got %v, want ErrUnknownSize", err)
	}
}

func TestConfigForSizeDC(t *testing.T) {
	for s, nodes := range map[Size]int{DC64Size: 64, DC128Size: 128} {
		cfg := ConfigForSize(s)
		if cfg.Nodes != nodes {
			t.Errorf("%s: Nodes = %d, want %d", s, cfg.Nodes, nodes)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}
