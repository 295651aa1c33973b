// The CSV regression gate: machine-checked evidence that a sweep —
// parallel or sequential — reproduced the reference results exactly.
// CI runs a sweep and verifies it against the checked-in
// results_ci.csv; tests verify the parallel path against a fresh
// sequential run. Any divergence is a hard failure, so the parallel
// harness cannot silently drift from the deterministic baseline.
package harness

import (
	"fmt"
	"os"
	"strings"
)

// CSVString renders runs exactly as WriteCSV would.
func CSVString(runs []AppRun) string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = WriteCSV(&b, runs)
	return b.String()
}

// DiffCSV compares two full CSV dumps line by line and returns a
// descriptive error on the first few divergences, or nil when the
// dumps are byte-identical.
func DiffCSV(got, want string) error {
	gl := splitLines(got)
	wl := splitLines(want)
	var diffs []string
	n := len(gl)
	if len(wl) > n {
		n = len(wl)
	}
	for i := 0; i < n && len(diffs) < 5; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g, w))
		}
	}
	if len(gl) != len(wl) {
		diffs = append(diffs, fmt.Sprintf("line count: got %d, want %d", len(gl), len(wl)))
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("CSV divergence:\n%s", strings.Join(diffs, "\n"))
}

// VerifyAgainstFile checks every row of runs' CSV dump against the
// reference CSV at path. The sweep may cover a subset of the
// reference's apps/policies (CI smoke runs do); each produced row must
// match the reference row for the same (app, policy) cell exactly.
// It returns nil when every row matches.
func VerifyAgainstFile(runs []AppRun, path string) error {
	ref, err := ReadCSV(path)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	gotLines := splitLines(CSVString(runs))
	if len(gotLines) < 2 {
		return fmt.Errorf("verify: sweep produced no rows")
	}
	var diffs []string
	for _, ln := range gotLines[1:] {
		key := RowKey(ln)
		want, ok := ref[key]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("cell %s: not in %s", key, path))
		} else if ln != want {
			diffs = append(diffs, fmt.Sprintf("cell %s:\n  got  %q\n  want %q", key, ln, want))
		}
		if len(diffs) >= 5 {
			break
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("verify: sweep diverges from %s:\n%s", path, strings.Join(diffs, "\n"))
	}
	return nil
}

// ReadCSV reads a committed sweep CSV (results_ci.csv,
// results_scale.csv) and keys its rows by RowKey. A file whose first
// line is not CSVHeader is refused.
func ReadCSV(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := splitLines(string(raw))
	if len(lines) == 0 || lines[0] != CSVHeader {
		return nil, fmt.Errorf("%s: not a sweep CSV (header mismatch)", path)
	}
	rows := make(map[string]string, len(lines)-1)
	for _, ln := range lines[1:] {
		rows[RowKey(ln)] = ln
	}
	return rows, nil
}

// RowKey extracts the "app,policy" cell key from a CSV row.
func RowKey(line string) string {
	fields := strings.SplitN(line, ",", 3)
	if len(fields) < 3 {
		return line
	}
	return fields[0] + "," + fields[1]
}

// splitLines splits on newlines, dropping a trailing empty line and
// any carriage returns, so byte-identity is judged on content lines.
func splitLines(s string) []string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
