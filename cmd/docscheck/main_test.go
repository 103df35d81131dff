package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (path → content) under a fresh temp directory and
// returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// check runs all three checks over root, as CI runs them over the module:
// the package docs of root/pkg, the links of root/README.md, and the .md
// names in every comment under root.
func check(t *testing.T, root string) []string {
	t.Helper()
	docs, err := checkPackageDocs(filepath.Join(root, "pkg"))
	if err != nil {
		t.Fatal(err)
	}
	links, err := checkMarkdown(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	refs, err := checkCommentRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(docs, links...), refs...)
}

const cleanPkg = `// Package pkg is documented; see NOTES.md.
package pkg

// Exported is documented.
func Exported() {}

func unexported() {}
`

const cleanReadme = "# Title\n\n## Usage\n\nSee [notes](NOTES.md#details), [usage](#usage) and [the site](https://example.com/missing).\n"

func TestCleanTreeReportsNothing(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/pkg.go": cleanPkg,
		"README.md":  cleanReadme,
		"NOTES.md":   "# Notes\n\n## Details\n",
	})
	if got := check(t, root); len(got) != 0 {
		t.Fatalf("clean tree reported %d problems: %q", len(got), got)
	}
}

func TestEachFaultIsReported(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/pkg.go": cleanPkg + "\nfunc Undocumented() {}\n\n// Helper names GONE.md, which does not exist.\nfunc Helper() {}\n",
		"README.md":  cleanReadme + "\nA [dead link](missing/file.md) and a [dead anchor](#nowhere).\n",
		"NOTES.md":   "# Notes\n\n## Details\n",
	})
	got := check(t, root)
	for _, want := range []string{
		"exported function Undocumented has no doc comment",
		"link target missing/file.md does not exist",
		"anchor #nowhere not found",
		"comment names GONE.md, which does not exist",
	} {
		found := false
		for _, p := range got {
			found = found || strings.Contains(p, want)
		}
		if !found {
			t.Errorf("no problem reads %q; got %q", want, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d problems, want 4: %q", len(got), got)
	}
}
