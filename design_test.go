package prism_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage: DESIGN.md §3 lists every
// module, so each directory under internal/ and cmd/ that holds Go
// files needs a row there, keyed by its backquoted path.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start, end := strings.Index(doc, "\n## 3. "), strings.Index(doc, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: no §3 inventory before §4")
	}
	rows := map[string]bool{}
	for _, ln := range strings.Split(doc[start:end], "\n") {
		if path, ok := strings.CutPrefix(ln, "| `"); ok {
			if i := strings.IndexByte(path, '`'); i > 0 {
				rows[path[:i]] = true
			}
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) > 0 && !rows[filepath.ToSlash(path)] {
				t.Errorf("DESIGN.md §3 has no row for %s", filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
