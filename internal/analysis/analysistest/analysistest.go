// Package analysistest runs an analyzer over fixture packages under a
// testdata directory and checks its diagnostics against expectations
// written in the fixtures themselves, mirroring the x/tools harness
// of the same name.
//
// Fixtures live in testdata/src/<importpath>/*.go. A fixture line
// that should be flagged carries a trailing comment of the form
//
//	code() // want "regexp"
//
// with one quoted regular expression per expected diagnostic on that
// line. Every reported diagnostic must match a want, and every want
// must be matched, or the test fails. Fixture packages may import
// each other, real module packages, and the standard library; a
// fixture's _test.go files, which must be in-package, are analyzed
// with it.
package analysistest

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"horus/internal/analysis"
	"horus/internal/analysis/load"
)

// expectation is one // want regexp at one file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE captures the quoted patterns of a want comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads the fixture packages named by pkgpaths from
// testdata/src/, applies the analyzer to each, and reports any
// mismatch between diagnostics and // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	overlay, err := discoverOverlay(srcRoot)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, path := range pkgpaths {
		if _, ok := overlay[path]; !ok {
			t.Fatalf("analysistest: no fixture package %q under %s", path, srcRoot)
		}
	}
	pkgs, err := load.Load(load.Config{Dir: ".", Tests: true, Overlay: overlay}, pkgpaths...)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("analysistest: fixture %s: type error: %v", pkg.PkgPath, terr)
		}
		wants := collectWants(t, pkg.Fset, pkg.Files)
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Errorf("analysistest: %s on %s: %v", a.Name, pkg.PkgPath, err)
			continue
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !matchWant(wants, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
			}
		}
	}
}

// discoverOverlay maps every directory under srcRoot containing .go
// files to its import path relative to srcRoot.
func discoverOverlay(srcRoot string) (map[string]string, error) {
	overlay := make(map[string]string)
	err := filepath.WalkDir(srcRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil {
			return err
		}
		overlay[filepath.ToSlash(rel)] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return overlay, nil
}

// collectWants parses the // want comments of all fixture files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, raw, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: pat,
					})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the quoted strings of a want comment tail —
// double-quoted with backslash escapes, or backquoted raw strings
// (the friendlier form for regexps) — returning them still quoted.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexAny(s, "\"`")
		if i < 0 {
			return out
		}
		quote := s[i]
		j := i + 1
		for j < len(s) {
			if quote == '"' && s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == quote {
				break
			}
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}

// matchWant marks and reports the first unmatched expectation at
// file:line whose regexp matches msg.
func matchWant(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.line != line || w.file != file {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
