package workloads

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prism"
)

// Named errors for the registry's failure modes. Callers (the harness
// spec parser, prismd's normalizer) match these with errors.Is to turn
// a bad spec into a clean CLI or RPC error.
var (
	ErrUnknownWorkload = errors.New("workloads: unknown workload")
	ErrUnsupportedSize = errors.New("workloads: unsupported size")
	ErrUnknownParam    = errors.New("workloads: unknown parameter")
	ErrBadParam        = errors.New("workloads: bad parameter value")
	ErrUnknownSize     = errors.New("workloads: unknown size")
)

// Params carries a workload's tunables as key→value strings, exactly as
// they appear in an app spec (`kv:shards=64,zipf=1.1`). A descriptor's
// DefaultParams names every legal key; overrides for keys outside that
// set are rejected, so a typo fails loudly instead of silently running
// the default.
type Params map[string]string

// Clone returns a copy (nil stays nil).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Keys returns the parameter names in sorted order.
func (p Params) Keys() []string {
	out := make([]string, 0, len(p))
	for k := range p {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Int parses the named parameter as a positive integer.
func (p Params) Int(key string) (int, error) {
	v, err := strconv.Atoi(p[key])
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%w: %s=%q (want a positive integer)", ErrBadParam, key, p[key])
	}
	return v, nil
}

// Float parses the named parameter as a positive float.
func (p Params) Float(key string) (float64, error) {
	v, err := strconv.ParseFloat(p[key], 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%w: %s=%q (want a positive number)", ErrBadParam, key, p[key])
	}
	return v, nil
}

// Descriptor declares one workload to the registry. Workload files
// register themselves in init(); nothing else in the package needs
// editing to add a workload.
//
// Every registered workload owes the repo's determinism contract: real
// algorithm on host memory, simulated references per touched line, and
// shared state mutated only under gate-ordered synchronization (one
// lock, or barrier-separated single-writer phases — DESIGN.md §8), so
// checkpoints work.
type Descriptor struct {
	// Name is the canonical spelling (lower case). Lookup is
	// case-insensitive; Aliases add further spellings ("waternsq").
	Name    string
	Aliases []string

	// Paper marks the eight Table 2 SPLASH kernels. Names() — and with
	// it every default sweep — contains exactly the paper workloads;
	// the rest are selected explicitly.
	Paper bool

	// DefaultParams names every tunable with its default value; nil
	// means the workload takes no parameters.
	DefaultParams Params

	// Sizes lists the supported size classes; nil means all of them.
	Sizes []Size

	// New builds the workload. params is the full parameter set
	// (defaults merged with any overrides) — never nil unless
	// DefaultParams is nil.
	New func(size Size, params Params) (prism.Workload, error)
}

// SupportsSize reports whether the descriptor runs at size s.
func (d *Descriptor) SupportsSize(s Size) bool {
	if d.Sizes == nil {
		return true
	}
	for _, v := range d.Sizes {
		if v == s {
			return true
		}
	}
	return false
}

// SizeNames returns the names of the supported sizes.
func (d *Descriptor) SizeNames() []string {
	var out []string
	for _, s := range Sizes() {
		if d.SupportsSize(s) {
			out = append(out, s.String())
		}
	}
	return out
}

// Build constructs the workload at size with the given overrides
// merged over the descriptor's defaults. Unknown override keys and
// unsupported sizes fail with the named errors above.
func (d *Descriptor) Build(size Size, overrides Params) (prism.Workload, error) {
	if !d.SupportsSize(size) {
		return nil, fmt.Errorf("%w: %s does not run at size %s (supported: %s)",
			ErrUnsupportedSize, d.Name, size, strings.Join(d.SizeNames(), ", "))
	}
	merged := d.DefaultParams.Clone()
	for _, k := range overrides.Keys() {
		if _, ok := merged[k]; !ok {
			valid := "none"
			if len(d.DefaultParams) > 0 {
				valid = strings.Join(d.DefaultParams.Keys(), ", ")
			}
			return nil, fmt.Errorf("%w: %s has no parameter %q (valid: %s)",
				ErrUnknownParam, d.Name, k, valid)
		}
		merged[k] = overrides[k]
	}
	return d.New(size, merged)
}

var (
	regOrder []*Descriptor
	regIndex = map[string]*Descriptor{}
)

// Register adds a workload to the registry; workload files call it
// from init(). It panics on duplicate names or aliases — a collision
// is a programming error, caught by the first test that imports the
// package.
func Register(d Descriptor) {
	if d.Name == "" || d.New == nil {
		panic("workloads: Register needs a Name and a New function")
	}
	desc := &d
	for _, n := range append([]string{d.Name}, d.Aliases...) {
		key := strings.ToLower(n)
		if prev, dup := regIndex[key]; dup {
			panic(fmt.Sprintf("workloads: %q already registered by %s", n, prev.Name))
		}
		regIndex[key] = desc
	}
	regOrder = append(regOrder, desc)
}

// Lookup resolves a workload name (case-insensitive, aliases included).
func Lookup(name string) (*Descriptor, bool) {
	d, ok := regIndex[strings.ToLower(name)]
	return d, ok
}

// Descriptors returns every registered workload in registration order
// (paper order for the SPLASH kernels, then the extras).
func Descriptors() []*Descriptor {
	return append([]*Descriptor(nil), regOrder...)
}

// NewWorkload builds the named workload at size with parameter
// overrides — the registry-native constructor behind ByName.
func NewWorkload(name string, size Size, params Params) (prism.Workload, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorkload, name)
	}
	return d.Build(size, params)
}
