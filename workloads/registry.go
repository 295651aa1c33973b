package workloads

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"prism"
)

// Named errors for the registry's failure modes. Callers (the harness
// spec normalizer, prismd, the CLIs) match these with errors.Is to turn
// a bad spec into a clean CLI or RPC error.
var (
	ErrUnknownWorkload = errors.New("workloads: unknown workload")
	ErrUnsupportedSize = errors.New("workloads: unsupported size")
	ErrUnknownParam    = errors.New("workloads: unknown parameter")
	ErrBadParam        = errors.New("workloads: bad parameter value")
	ErrUnknownSize     = errors.New("workloads: unknown size")
)

// Params carries raw parameter overrides as key→value strings, exactly
// as they appear in an app spec (`kv:shards=64,zipf=1.1`). ParseApp and
// NewWorkload check them against the descriptor's declared Params, so a
// typo or an out-of-range value fails loudly instead of silently
// running something else.
type Params map[string]string

// Param declares one workload parameter: its key, its default and the
// values it accepts. Declare one with Count, Percent or Positive.
type Param struct {
	Key      string
	real     bool // a finite number above zero; else an integer in [min, max]
	min, max int
	def      value
}

// value is one checked parameter value: i for an integer parameter, f
// for a real one.
type value struct {
	i int
	f float64
}

// Count declares an integer parameter of at least 1.
func Count(key string, def int) Param {
	return Param{Key: key, min: 1, max: math.MaxInt, def: value{i: def}}
}

// Percent declares an integer parameter in [min, 100].
func Percent(key string, def, min int) Param {
	return Param{Key: key, min: min, max: 100, def: value{i: def}}
}

// Positive declares a real parameter above zero.
func Positive(key string, def float64) Param {
	return Param{Key: key, real: true, def: value{f: def}}
}

// parse reads s as a value of p, reporting whether it is in range.
func (p *Param) parse(s string) (value, bool) {
	if p.real {
		f, err := strconv.ParseFloat(s, 64)
		return value{f: f}, err == nil && f > 0 && !math.IsInf(f, 1)
	}
	i, err := strconv.Atoi(s)
	return value{i: i}, err == nil && i >= p.min && i <= p.max
}

// format is v's one spelling: the shortest decimal that reads back as v.
func (p *Param) format(v value) string {
	if p.real {
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	}
	return strconv.Itoa(v.i)
}

// want describes the accepted values, for errors.
func (p *Param) want() string {
	switch {
	case p.real:
		return "a finite number above 0"
	case p.max == math.MaxInt:
		return fmt.Sprintf("an integer >= %d", p.min)
	}
	return fmt.Sprintf("an integer in %d..%d", p.min, p.max)
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

	// Params declares every tunable; nil means the workload takes no
	// parameters. Register sorts them by key.
	Params []Param

	// Check, when set, vets a combination of parameter values that
	// each pass their own range (kv's keys against its shards).
	Check func(a App) error

	// Sizes lists the supported size classes; nil means all of them.
	Sizes []Size

	// New builds the workload from checked values; it cannot fail.
	New func(size Size, a App) prism.Workload
}

// param returns the index of key in d.Params, or -1.
func (d *Descriptor) param(key string) int {
	for i := range d.Params {
		if d.Params[i].Key == key {
			return i
		}
	}
	return -1
}

// app checks raw overrides against the declared parameters: unknown
// keys first, then each value in key order, then Check. Each failure
// names the first offending key in key order.
func (d *Descriptor) app(overrides Params) (App, error) {
	unknown := ""
	for k := range overrides {
		if d.param(k) < 0 && (unknown == "" || k < unknown) {
			unknown = k
		}
	}
	if unknown != "" {
		valid := make([]string, len(d.Params))
		for i, p := range d.Params {
			valid[i] = p.Key
		}
		if len(valid) == 0 {
			valid = []string{"none"}
		}
		return App{}, fmt.Errorf("%w: %s has no parameter %q (valid: %s)",
			ErrUnknownParam, d.Name, unknown, strings.Join(valid, ", "))
	}
	a := App{d: d, vals: make([]value, len(d.Params))}
	for i := range d.Params {
		p := &d.Params[i]
		s, set := overrides[p.Key]
		if !set {
			a.vals[i] = p.def
			continue
		}
		v, ok := p.parse(s)
		if !ok {
			return App{}, fmt.Errorf("%w: %s=%q (want %s)", ErrBadParam, p.Key, s, p.want())
		}
		a.vals[i] = v
	}
	if d.Check != nil {
		if err := d.Check(a); err != nil {
			return App{}, fmt.Errorf("%w: %v", ErrBadParam, err)
		}
	}
	return a, nil
}

// App is a parsed app spec: a registered workload and a checked value
// for each of its parameters. Its String is the canonical spelling.
type App struct {
	d    *Descriptor
	vals []value // one per d.Params
}

// Int returns the value of the workload's integer parameter key.
func (a App) Int(key string) int { return a.vals[a.d.param(key)].i }

// Float returns the value of the workload's real parameter key.
func (a App) Float(key string) float64 { return a.vals[a.d.param(key)].f }

// String renders the canonical spelling: the registered name, then the
// parameters that differ from their defaults, in key order, each value
// in its one spelling, joined with `;` (the label doubles as the app
// column of comma-separated CSV rows).
func (a App) String() string {
	var b strings.Builder
	b.WriteString(a.d.Name)
	sep := byte(':')
	for i := range a.d.Params {
		p := &a.d.Params[i]
		if a.vals[i] == p.def {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(p.format(a.vals[i]))
		sep = ';'
	}
	return b.String()
}

// CheckSize reports whether the workload runs at size s.
func (a App) CheckSize(s Size) error {
	if a.d.Sizes == nil || slices.Contains(a.d.Sizes, s) {
		return nil
	}
	names := make([]string, len(a.d.Sizes))
	for i, v := range a.d.Sizes {
		names[i] = v.String()
	}
	return fmt.Errorf("%w: %s does not run at size %s (supported: %s)",
		ErrUnsupportedSize, a.d.Name, s, strings.Join(names, ", "))
}

// New builds a fresh instance at size s (workloads carry Setup state,
// so every run needs its own). It fails only on an unsupported size.
func (a App) New(s Size) (prism.Workload, error) {
	if err := a.CheckSize(s); err != nil {
		return nil, err
	}
	return a.d.New(s, a), nil
}

// ParseApp parses an app spec, `name[:key=val<sep>key=val...]` with
// `<sep>` either `,` or `;`: the name resolves through Lookup, keys are
// case-insensitive, and every key and value is checked against the
// descriptor. Every surface that names a workload — the -app/-apps
// flags, prismd specs, .prismcase files — goes through it, so a spec
// means the same run everywhere.
func ParseApp(spec string) (App, error) {
	name, rest, has := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return App{}, fmt.Errorf("workloads: empty workload name in spec %q", spec)
	}
	var overrides Params
	if has {
		overrides = Params{}
		for _, kv := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ';' }) {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return App{}, fmt.Errorf("workloads: malformed parameter %q in spec %q (want key=val)", kv, spec)
			}
			if _, dup := overrides[k]; dup {
				return App{}, fmt.Errorf("workloads: duplicate parameter %q in spec %q", k, spec)
			}
			overrides[k] = v
		}
		if len(overrides) == 0 {
			return App{}, fmt.Errorf("workloads: spec %q has a ':' but no parameters", spec)
		}
	}
	d, ok := Lookup(name)
	if !ok {
		return App{}, fmt.Errorf("%w %q", ErrUnknownWorkload, name)
	}
	return d.app(overrides)
}

var (
	regOrder []*Descriptor
	regIndex = map[string]*Descriptor{}
)

// Register adds a workload to the registry; workload files call it
// from init(). It panics on duplicate names, aliases or parameter keys
// — a programming error, caught by the first test that imports the
// package.
func Register(d Descriptor) {
	if d.Name == "" || d.New == nil {
		panic("workloads: Register needs a Name and a New function")
	}
	d.Params = append([]Param(nil), d.Params...)
	slices.SortFunc(d.Params, func(a, b Param) int { return strings.Compare(a.Key, b.Key) })
	for i := 1; i < len(d.Params); i++ {
		if d.Params[i].Key == d.Params[i-1].Key {
			panic(fmt.Sprintf("workloads: %s declares parameter %q twice", d.Name, d.Params[i].Key))
		}
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

// NewWorkload builds the named workload at size with raw parameter
// overrides (nil for the defaults), checked as ParseApp checks them.
func NewWorkload(name string, size Size, params Params) (prism.Workload, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorkload, name)
	}
	a, err := d.app(params)
	if err != nil {
		return nil, err
	}
	return a.New(size)
}
