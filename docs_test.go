package horus_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docs are the documents whose citations of code names are checked.
var docs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// declaredNames returns, sorted, the names decl's first group captures in
// the tree's Go files: the _test.go files when tests is set, else every
// other Go file outside testdata.
func declaredNames(t *testing.T, decl *regexp.Regexp, tests bool) []string {
	t.Helper()
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(declared)
	return declared
}

// checkCitations reports every name cite finds in the documents that
// accept rejects.
func checkCitations(t *testing.T, cite *regexp.Regexp, accept func(name string) bool, what string) {
	t.Helper()
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range cite.FindAllString(string(src), -1) {
			if !seen[name] && !accept(name) {
				t.Errorf("%s cites %s, which %s", doc, name, what)
			}
			seen[name] = true
		}
	}
}

// TestDocsCiteExistingTests: every Test…, Benchmark… or Fuzz… name the
// documents cite must name a function declared in some _test.go file,
// or be the prefix of one (as a -run pattern is). A test that is
// renamed or retired takes its citations with it.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := declaredNames(t, regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`), true)
	checkCitations(t, regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`), func(name string) bool {
		// The first declared name not less than name is the one name
		// prefixes, if any does.
		i := sort.SearchStrings(declared, name)
		return i < len(declared) && strings.HasPrefix(declared[i], name)
	}, "no _test.go declares")
}

// TestDocsCiteExistingOptions: every With… name the documents cite must
// be a function or method declared outside the tests. An option that is
// retired takes its citations with it.
func TestDocsCiteExistingOptions(t *testing.T) {
	declared := declaredNames(t, regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(With[A-Z]\w*)\(`), false)
	checkCitations(t, regexp.MustCompile(`\bWith[A-Z]\w*`), func(name string) bool {
		i := sort.SearchStrings(declared, name)
		return i < len(declared) && declared[i] == name
	}, "no non-test Go declares")
}
