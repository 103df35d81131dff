// Command docscheck is the documentation gate CI runs: it fails when an
// exported identifier in the given packages lacks a doc comment (the
// `revive exported` rule, implemented here so CI needs no third-party
// tool), when a relative link or intra-document anchor in the given
// markdown files points nowhere, or when a comment in any non-test .go file
// of the module names a .md file that does not exist.
//
// Usage:
//
//	docscheck -md README.md,ARCHITECTURE.md ./internal/cluster ./internal/wire
//
// Each package directory is parsed (tests excluded) and every exported
// top-level func, method, type, const and var must carry a doc comment on
// its declaration or its spec. Each markdown file's links are resolved
// relative to the file; http(s) and mailto targets are skipped, `#anchor`
// fragments are checked against GitHub-style heading slugs of the target
// document. Independently of the arguments, every non-test .go file under
// the working directory (the module root in CI; nested modules and dot
// directories are skipped) is scanned for .md file names in comments,
// each of which must exist at the root or beside the .go file.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	md := flag.String("md", "", "comma-separated markdown files to link-check")
	flag.Parse()

	var problems []string
	for _, dir := range flag.Args() {
		ps, err := checkPackageDocs(dir)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, ps...)
	}
	if *md != "" {
		for _, file := range strings.Split(*md, ",") {
			ps, err := checkMarkdown(strings.TrimSpace(file))
			if err != nil {
				fatal(err)
			}
			problems = append(problems, ps...)
		}
	}
	ps, err := checkCommentRefs(".")
	if err != nil {
		fatal(err)
	}
	problems = append(problems, ps...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problems\n", len(problems))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
	os.Exit(1)
}

// checkPackageDocs reports every exported top-level identifier in dir's
// non-test files that has no doc comment.
func checkPackageDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dir, err)
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(name.Pos(), kindOf(d.Tok), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}

func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// mdRefRe matches a markdown file named in running text: an optional
// directory path and a base name ending in .md.
var mdRefRe = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkCommentRefs walks root for non-test .go files and reports every
// .md file named in a comment that exists neither relative to root nor
// relative to the .go file's directory — the doc reference that outlived
// its document.
func checkCommentRefs(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module answers for itself
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, ref := range mdRefRe.FindAllString(c.Text, -1) {
					if _, err := os.Stat(filepath.Join(root, ref)); err == nil {
						continue
					}
					if _, err := os.Stat(filepath.Join(filepath.Dir(path), ref)); err == nil {
						continue
					}
					problems = append(problems, fmt.Sprintf("%s:%d: comment names %s, which does not exist",
						path, fset.Position(c.Pos()).Line, ref))
				}
			}
		}
		return nil
	})
	return problems, err
}

var (
	linkRe  = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	fenceRe = regexp.MustCompile("(?s)```.*?```")
	headRe  = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)
	slugRe  = regexp.MustCompile(`[^a-z0-9 \-]`)
)

// anchorsOf returns the GitHub-style heading slugs of a markdown document.
func anchorsOf(content string) map[string]bool {
	anchors := make(map[string]bool)
	for _, m := range headRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(content, ""), -1) {
		slug := strings.ToLower(strings.TrimSpace(m[1]))
		slug = slugRe.ReplaceAllString(slug, "")
		slug = strings.ReplaceAll(slug, " ", "-")
		anchors[slug] = true
	}
	return anchors
}

// checkMarkdown verifies every relative link and anchor in file resolves.
func checkMarkdown(file string) ([]string, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	content := string(b)
	var problems []string
	for _, m := range linkRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(content, ""), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") {
			continue
		}
		path, anchor, _ := strings.Cut(target, "#")
		targetFile := file
		if path != "" {
			targetFile = filepath.Join(filepath.Dir(file), path)
			if _, err := os.Stat(targetFile); err != nil {
				problems = append(problems, fmt.Sprintf("%s: link target %s does not exist", file, target))
				continue
			}
		}
		if anchor != "" && strings.HasSuffix(targetFile, ".md") {
			tb := b
			if targetFile != file {
				if tb, err = os.ReadFile(targetFile); err != nil {
					return nil, err
				}
			}
			if !anchorsOf(string(tb))[anchor] {
				problems = append(problems, fmt.Sprintf("%s: anchor %s not found in %s", file, target, targetFile))
			}
		}
	}
	return problems, nil
}
