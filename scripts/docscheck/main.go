// Command docscheck is the repository's documentation gate, run by
// scripts/check.sh (and CI). It enforces two invariants:
//
//  1. every Go package under the repo (root, internal/*, cmd/*,
//     scripts/*, examples/*) carries a package-level doc comment, so
//     godoc always explains a package's role in the model pipeline;
//  2. every relative link or file reference in the top-level *.md files
//     points at a path that exists, so the docs cannot silently rot as
//     files move.
//
// Usage: go run ./scripts/docscheck (from the repo root). Exits
// non-zero listing every violation.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	var problems []string
	problems = append(problems, checkPackageComments(".")...)
	problems = append(problems, checkMarkdownLinks(".")...)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkPackageComments parses every Go package directory and reports
// those whose package clause has no doc comment on any file.
func checkPackageComments(root string) []string {
	// Collect directories containing non-test Go files.
	dirs := map[string]bool{}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})

	var problems []string
	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package-level doc comment", dir, name))
			}
		}
	}
	return problems
}

// mdLink matches inline Markdown links [text](target); bare uppercase
// doc references like "ARCHITECTURE.md" are matched separately, with
// any directory prefix ("perfbench/README.md"), so they resolve at the
// path they name rather than at the repo root.
var (
	mdLink  = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdocRef = regexp.MustCompile(`((?:[\w.-]+/)*\b[A-Z][A-Z_]+\.md)\b`)
	fence   = regexp.MustCompile("^\\s*(```|~~~)")
)

// checkMarkdownLinks scans the top-level *.md files for relative link
// targets and doc-file references and reports any that do not exist.
// External links (scheme-prefixed), pure anchors, and anything inside
// fenced code blocks are skipped.
func checkMarkdownLinks(root string) []string {
	files, err := filepath.Glob(filepath.Join(root, "*.md"))
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		inFence := false
		for lineNo, line := range strings.Split(string(raw), "\n") {
			if fence.MatchString(line) {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			targets := map[string]bool{}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				targets[m[1]] = true
			}
			for _, m := range mdocRef.FindAllStringSubmatch(line, -1) {
				targets[m[1]] = true
			}
			for target := range targets {
				if skipTarget(target) {
					continue
				}
				// Strip an in-file anchor: FILE.md#section → FILE.md.
				path := target
				if i := strings.IndexByte(path, '#'); i >= 0 {
					path = path[:i]
				}
				if path == "" {
					continue
				}
				if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken reference %q", file, lineNo+1, target))
				}
			}
		}
	}
	return problems
}

// skipTarget reports whether a link target is out of scope for the
// existence check: external URLs, mail links, and pure anchors.
func skipTarget(t string) bool {
	return strings.Contains(t, "://") ||
		strings.HasPrefix(t, "mailto:") ||
		strings.HasPrefix(t, "#")
}
