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
	stub := func(Size, Params) (prism.Workload, error) { return nil, nil }
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
