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

// TestDocsCiteExistingTests: every Test…, Benchmark… or Fuzz… name the
// documents cite must name a function declared in some _test.go file,
// or be the prefix of one (as a -run pattern is). A test that is
// renamed or retired takes its citations with it.
func TestDocsCiteExistingTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
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

	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range cite.FindAllString(string(src), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			// The first declared name not less than name is the one
			// name prefixes, if any does.
			i := sort.SearchStrings(declared, name)
			if i == len(declared) || !strings.HasPrefix(declared[i], name) {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}
