// App specs: the one place the `name:key=val,key=val` workload
// grammar is parsed. Everything that names a workload — the -apps
// flag, prismd experiment specs, .prismcase files — speaks this
// grammar and funnels through ParseAppSpec, so a spec means the same
// run everywhere.
//
// Both `,` and `;` separate parameters on input. The canonical
// spelling uses `;` because the canonical spec doubles as the app
// label in sweep CSV rows, whose columns are comma-separated
// (rowKey in verify.go splits on commas). Canonicalization also
// resolves aliases to the registered name, sorts parameters by key,
// and drops parameters spelled exactly at their default, so two
// spellings of the same experiment share CSV rows and prismd cache
// digests.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"prism"
	"prism/workloads"
)

// SplitAppSpec splits a `name:key=val,key=val` spec into its raw name
// and parameter overrides, without consulting the registry. A bare
// name yields nil params. Parameter separators may be `,` or `;`.
func SplitAppSpec(spec string) (string, workloads.Params, error) {
	name, rest, has := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("harness: empty workload name in spec %q", spec)
	}
	if !has {
		return name, nil, nil
	}
	params := workloads.Params{}
	for _, kv := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ';' }) {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("harness: malformed parameter %q in spec %q (want key=val)", kv, spec)
		}
		k = strings.ToLower(k)
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("harness: duplicate parameter %q in spec %q", k, spec)
		}
		params[k] = v
	}
	if len(params) == 0 {
		return "", nil, fmt.Errorf("harness: spec %q has a ':' but no parameters", spec)
	}
	return name, params, nil
}

// ParseAppSpec resolves a spec against the workload registry: the
// returned name is the registered (canonical) spelling and every
// parameter key is checked against the workload's declared set.
// Parameter values are validated later, by the workload constructor.
func ParseAppSpec(spec string) (string, workloads.Params, error) {
	name, params, err := SplitAppSpec(spec)
	if err != nil {
		return "", nil, err
	}
	d, ok := workloads.Lookup(name)
	if !ok {
		return "", nil, fmt.Errorf("%w: %q", workloads.ErrUnknownWorkload, name)
	}
	for _, k := range params.Keys() {
		if _, ok := d.DefaultParams[k]; !ok {
			return "", nil, fmt.Errorf("%w: %q has no parameter %q (valid: %s)",
				workloads.ErrUnknownParam, d.Name, k, strings.Join(d.DefaultParams.Keys(), ", "))
		}
	}
	return d.Name, params, nil
}

// AppLabel renders the canonical spelling of a (name, params) cell:
// the registered workload name, plus the `;`-separated key-sorted
// overrides that differ from the workload's defaults. It is the app
// label in CSV rows and the app entry in normalized prismd specs.
func AppLabel(name string, params workloads.Params) (string, error) {
	d, ok := workloads.Lookup(name)
	if !ok {
		return "", fmt.Errorf("%w: %q", workloads.ErrUnknownWorkload, name)
	}
	var kvs []string
	for _, k := range params.Keys() {
		dv, ok := d.DefaultParams[k]
		if !ok {
			return "", fmt.Errorf("%w: %q has no parameter %q (valid: %s)",
				workloads.ErrUnknownParam, d.Name, k, strings.Join(d.DefaultParams.Keys(), ", "))
		}
		if params[k] != dv {
			kvs = append(kvs, k+"="+params[k])
		}
	}
	if len(kvs) == 0 {
		return d.Name, nil
	}
	sort.Strings(kvs)
	return d.Name + ":" + strings.Join(kvs, ";"), nil
}

// CanonicalAppSpec parses and re-renders a spec in canonical form.
func CanonicalAppSpec(spec string) (string, error) {
	name, params, err := ParseAppSpec(spec)
	if err != nil {
		return "", err
	}
	return AppLabel(name, params)
}

// NewWorkloadSpec builds a fresh workload instance for a spec at a
// size (workloads carry Setup state, so every run needs its own).
func NewWorkloadSpec(spec string, size workloads.Size) (prism.Workload, error) {
	name, params, err := ParseAppSpec(spec)
	if err != nil {
		return nil, err
	}
	return workloads.NewWorkload(name, size, params)
}

// SplitAppList splits a comma-separated list of app specs (the -apps
// CLI syntax). Commas also separate parameters inside a spec, so a
// segment shaped like a bare key=val (no workload name before a ':')
// continues the previous spec: "kv:keys=8192,ops=64,pubsub" is the
// two specs "kv:keys=8192,ops=64" and "pubsub". Writing `;` between
// parameters avoids the ambiguity entirely.
func SplitAppList(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if len(out) > 0 && strings.Contains(seg, "=") && !strings.Contains(seg, ":") {
			out[len(out)-1] += "," + seg
			continue
		}
		out = append(out, seg)
	}
	return out
}

// SpecFileName flattens a spec into a filename-safe label for
// per-cell metrics exports: `:` and `=` become `-`, `;` and `,`
// become `+`, so `kv:keys=8192;ops=64` exports as
// `kv-keys-8192+ops-64_<policy>.json`.
func SpecFileName(spec string) string {
	return strings.NewReplacer(":", "-", "=", "-", ";", "+", ",", "+").Replace(spec)
}
