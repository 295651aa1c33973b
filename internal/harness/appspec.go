// App-spec lists and file names. The spec grammar itself — name,
// parameters, their types and their one canonical spelling — belongs
// to the workload registry (workloads.ParseApp); this file only splits
// the -apps flag and flattens a canonical spec into a file name.
package harness

import "strings"

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
